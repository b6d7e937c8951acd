package main

// The writer: one client in an open loop at a fixed batch rate.  Each
// batch is new proposals plus a marker document, stored through
// IngestBatch; the batch is visible once every document is acked and a
// GET /xdb for the marker term returns the marker document.  Older
// churn batches are deleted over DELETE /doc/{id} so the live set stays
// level.  DB.Checkpoint runs every ckptEvery batches, if set, and once
// when the writer's phase ends.

import (
	"bytes"
	"fmt"
	"net/url"
	"time"

	"netmark/internal/core"
	"netmark/internal/corpus"
	"netmark/internal/docform"
)

const (
	batchDocs   = 2  // proposals per batch, plus the marker document
	liveBatches = 20 // churn batches kept live before the oldest is deleted
	visibleWait = 10 * time.Second
)

// ackedOp is one acknowledged write, in the order it was acked.
type ackedOp struct {
	ingest  []corpus.Document
	deletes []string // document names
}

type liveDoc struct {
	name string
	id   uint64
}

// writer drives writes against a served instance.
type writer struct {
	nm        *core.Netmark
	base      string
	c         *client
	ch        *churn
	rate      float64 // batches per second
	ckptEvery int     // batches between checkpoints; 0 for none before the phase ends
	deletes   *deleteLog
	tr        *tracer // nil when untraced; spans only while tr.on

	ops     []ackedOp
	live    [][]liveDoc
	batches int
	docs    int

	visibleMs  []float64
	failed     int
	failReason string
}

// run writes for dur at w.rate.  It returns when the last batch due
// within dur has completed.
func (w *writer) run(dur time.Duration) {
	res := openLoop(1, w.rate, dur, func(_, _ int) (bool, time.Time) {
		visible, err := w.batch()
		if err != nil {
			w.failed++
			if w.failReason == "" {
				w.failReason = err.Error()
			}
			return false, time.Now()
		}
		return true, visible
	})
	w.visibleMs = append(w.visibleMs, res.latMs...)
	if err := w.checkpoint(); err != nil {
		w.failed++
		if w.failReason == "" {
			w.failReason = err.Error()
		}
	}
}

func (w *writer) checkpoint() error {
	var err error
	w.span(0, w.newReq(), "ordbms.checkpoint", func() { err = w.nm.DB().Checkpoint() })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// batch writes one batch and returns when it became visible; the
// deletes and the checkpoint that follow keep the writer busy but are
// not part of the batch's visibility.
func (w *writer) batch() (visible time.Time, err error) {
	docs, marker := w.ch.batch(batchDocs)
	var root, req uint64
	var rootStart time.Duration
	traced := w.traced()
	if traced {
		req, root = w.tr.newID(), w.tr.newID()
		rootStart = w.tr.now()
		for _, d := range docs {
			d := d
			w.tr.timed(root, req, "docform.convert", func() { docform.Convert(d.Name, d.Data) })
		}
	}
	batch := make([]core.Doc, len(docs))
	for i, d := range docs {
		batch[i] = core.Doc{Name: d.Name, Data: d.Data}
	}
	var results []core.IngestResult
	w.span(root, req, "xmlstore.ingest_batch", func() { results = w.nm.IngestBatch(batch) })
	live := make([]liveDoc, len(results))
	for i, r := range results {
		if r.Err != nil {
			return visible, fmt.Errorf("ingest %s: %w", r.Name, r.Err)
		}
		live[i] = liveDoc{name: r.Name, id: r.DocID}
	}
	w.ops = append(w.ops, ackedOp{ingest: docs})
	w.live = append(w.live, live)
	w.batches++
	w.docs += len(docs)
	w.span(root, req, "xdb.visible_probe", func() { err = w.awaitVisible(marker, docs[len(docs)-1].Name) })
	if err != nil {
		return visible, err
	}
	visible = time.Now()
	if traced {
		w.tr.record(span{ID: root, Req: req, Name: "write.batch", Start: rootStart, End: w.tr.now()})
	}
	if len(w.live) > liveBatches {
		if err := w.deleteOldest(); err != nil {
			return visible, err
		}
	}
	if w.ckptEvery > 0 && w.batches%w.ckptEvery == 0 {
		if err := w.checkpoint(); err != nil {
			return visible, err
		}
	}
	return visible, nil
}

// awaitVisible polls GET /xdb?content=<marker> until the marker
// document answers.
func (w *writer) awaitVisible(marker, name string) error {
	url := w.base + "/xdb?" + url.Values{"content": {marker}}.Encode()
	var buf bytes.Buffer
	deadline := time.Now().Add(visibleWait)
	for {
		status, err := w.c.get(url, &buf, nil)
		if err != nil {
			return fmt.Errorf("visibility probe: %w", err)
		}
		if status == 200 && bytes.Contains(buf.Bytes(), []byte(`doc="`+name+`"`)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("marker %s not visible after %v (status %d)", marker, visibleWait, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// deleteOldest deletes the oldest live churn batch over HTTP.
func (w *writer) deleteOldest() error {
	oldest := w.live[0]
	w.live = w.live[1:]
	op := ackedOp{}
	for _, d := range oldest {
		var err error
		w.span(0, w.newReq(), "xmlstore.delete", func() { err = w.c.delete(fmt.Sprintf("%s/doc/%d", w.base, d.id)) })
		if err != nil {
			return err
		}
		w.deletes.ack(d.name, time.Now())
		op.deletes = append(op.deletes, d.name)
	}
	w.ops = append(w.ops, op)
	return nil
}

func (w *writer) liveInputBytes() int64 {
	var n int64
	sizes := map[string]int64{}
	for _, op := range w.ops {
		for _, d := range op.ingest {
			sizes[d.Name] = int64(len(d.Data))
		}
		for _, name := range op.deletes {
			delete(sizes, name)
		}
	}
	for _, s := range sizes {
		n += s
	}
	return n
}

func (w *writer) traced() bool { return w.tr != nil && w.tr.on.Load() }

func (w *writer) span(parent, req uint64, name string, fn func()) {
	if !w.traced() {
		fn()
		return
	}
	w.tr.timed(parent, req, name, fn)
}

func (w *writer) newReq() uint64 {
	if !w.traced() {
		return 0
	}
	return w.tr.newID()
}

// replay applies the acked op log, in order, to a reference instance.
func replay(ref *core.Netmark, ops []ackedOp) error {
	ids := map[string]uint64{}
	for _, op := range ops {
		if len(op.ingest) > 0 {
			batch := make([]core.Doc, len(op.ingest))
			for i, d := range op.ingest {
				batch[i] = core.Doc{Name: d.Name, Data: d.Data}
			}
			for _, r := range ref.IngestBatch(batch) {
				if r.Err != nil {
					return fmt.Errorf("replay ingest %s: %w", r.Name, r.Err)
				}
				ids[r.Name] = r.DocID
			}
		}
		for _, name := range op.deletes {
			if err := ref.Store().DeleteDocument(ids[name]); err != nil {
				return fmt.Errorf("replay delete %s: %w", name, err)
			}
		}
	}
	return ref.DB().Commit()
}
