// Package xmlstore implements the NETMARK XML Store — the paper's core
// contribution.  Every document, whatever its type, is decomposed into
// nodes and stored in the same two relational tables (Fig 5):
//
//	DOC:  DOC_ID, FILE_NAME, FILE_DATE, FILE_SIZE, FORMAT, TITLE,
//	      ROOT_ROWID, NNODES
//	XML:  NODEID (PK), DOC_ID (FK), NODETYPE, NODENAME, NODEDATA,
//	      ORDINAL, PARENTNODEID, PARENTROWID, PREVROWID, NEXTROWID,
//	      CHILDROWID
//
// No per-document-type schema ever exists: "the NETMARK storage scheme
// uses the same relational tables to represent and store any XML document
// type" (§2.1.1).  Node-to-node links are physical RowIDs, reproducing
// the paper's use of Oracle ROWIDs "for very fast traversal between nodes
// that are related": following a link costs one buffer-pool fetch.
//
// This package persists derived snapshots, so every committing rename
// must follow write-temp → fsync → rename → fsync-dir.
//
// netmarkvet:persistence
package xmlstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"netmark/internal/btree"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// Column order of the XML table.  Link columns are encoded as 8-byte
// packed RowIDs (BYTES) so link patches re-encode to the identical record
// size and never move a row.
const (
	xmlColNodeID = iota
	xmlColDocID
	xmlColNodeType
	xmlColNodeName
	xmlColNodeData
	xmlColOrdinal
	xmlColParentNodeID
	xmlColParentRowID
	xmlColPrevRowID
	xmlColNextRowID
	xmlColChildRowID
	xmlColAttrs
)

// Column order of the DOC table.
const (
	docColDocID = iota
	docColFileName
	docColFileDate
	docColFileSize
	docColFormat
	docColTitle
	docColRootRowID
	docColNNodes
)

// Node is a decoded row of the XML table.
type Node struct {
	NodeID   uint64
	DocID    uint64
	Class    sgml.NodeClass
	Name     string
	Data     string
	Ordinal  int
	ParentID uint64
	Attrs    []sgml.Attr

	RowID       ordbms.RowID // physical address of this node
	ParentRowID ordbms.RowID
	PrevRowID   ordbms.RowID
	NextRowID   ordbms.RowID
	ChildRowID  ordbms.RowID
}

// DocInfo is a decoded row of the DOC table.
type DocInfo struct {
	DocID     uint64
	FileName  string
	FileDate  int64
	FileSize  int64
	Format    string
	Title     string
	RootRowID ordbms.RowID
	NNodes    int64
	RowID     ordbms.RowID // physical address of the DOC row
}

// Section is one context/content search result: a heading and the text
// that follows it, as in Fig 6 of the paper.
type Section struct {
	DocID      uint64
	DocName    string
	DocTitle   string
	Context    string
	Content    string
	ContextRID ordbms.RowID
}

// Store is an open NETMARK XML Store.
type Store struct {
	db  *ordbms.DB
	xml *ordbms.Table
	doc *ordbms.Table

	// mu protects ID allocation only; hold times are a few instructions.
	// netmarkvet:hot netmarkvet:lockorder 20
	mu         sync.RWMutex
	nextNodeID uint64 // guarded by mu; netmarkvet:snap
	nextDocID  uint64 // guarded by mu; netmarkvet:snap

	// content is the full-text index over TEXT node data; IDs are packed
	// physical RowIDs, so a hit leads straight to the page.
	// netmarkvet:snap
	content *textindex.Index
	// contexts maps normalised (lowercased) heading text to the RowIDs
	// of CONTEXT nodes bearing it.  Guarded by ctxMu.
	// netmarkvet:snap netmarkvet:gen ctxGens
	contexts *btree.Tree[string, ordbms.RowID]
	// ctxMu protects the in-memory context btree and its generations;
	// never held across I/O.  netmarkvet:hot netmarkvet:lockorder 30
	ctxMu sync.RWMutex
	// ctxGens carries one mutation generation per normalised heading,
	// assigned from ctxGenCounter on every insert or removal of a RowID
	// under that heading.  Entries are never deleted (a tombstoned gen
	// keeps "heading existed then vanished" distinguishable from "never
	// existed"); result caches fold these into their keys the way they
	// fold the text index's per-term gens.  Guarded by ctxMu.
	// netmarkvet:snap
	ctxGens map[string]uint64
	// netmarkvet:snap
	ctxGenCounter uint64 // guarded by ctxMu

	// ctxIdx is the derived node→governing-CONTEXT index: for every TEXT
	// node, the RowID of the heading that governs it (ZeroRowID when the
	// document has no headings above the node).  Built from the flattened
	// tree at ingest, rebuilt on open, patched on delete — it turns the
	// §2.1.4 "traverse up via parent/sibling until the first context"
	// walk into one map probe.
	// ctxIdxMu protects the derived map only; never held across I/O.
	// netmarkvet:hot netmarkvet:lockorder 32
	ctxIdxMu sync.RWMutex
	ctxIdx   map[ordbms.RowID]ordbms.RowID // guarded by ctxIdxMu; netmarkvet:snap
	// ctxIdxOff disables the derived index so ContextFor falls back to
	// the pointer-chasing walk — the kernel ablation knob, set during
	// benchmark setup only.
	ctxIdxOff bool

	// nodes is the decoded-node cache (nil = disabled).  Set once via
	// EnableNodeCache during setup, before the store serves traffic.
	nodes *nodeCache

	// queryWorkers bounds the section-materialisation fan-out of the
	// search kernels (0 = GOMAXPROCS, 1 or negative = serial).  Set via
	// SetQueryWorkers during setup.
	queryWorkers int

	// docGens tracks one mutation generation per document ID: bumped when
	// the document becomes fully visible (tables + derived indexes) and
	// again when a delete starts tearing it down.  Result caches validate
	// entries against the generations of the documents they touched.
	// docGenMu protects the per-document generation map; never held
	// across I/O.  netmarkvet:hot netmarkvet:lockorder 34
	docGenMu      sync.RWMutex
	docGens       map[uint64]uint64 // guarded by docGenMu; netmarkvet:snap
	docGenCounter uint64            // guarded by docGenMu; netmarkvet:snap

	// Stats counters.  netmarkvet:hot netmarkvet:lockorder 40
	statsMu       sync.Mutex
	docsIngested  uint64 // guarded by statsMu; netmarkvet:snap
	nodesInserted uint64 // guarded by statsMu; netmarkvet:snap

	// ckptMu is the checkpoint barrier.  Every mutation path (ingest,
	// batch writer+indexer, delete) holds it for reading across its whole
	// table-plus-derived-index span; the snapshot hook holds it for
	// writing, so a serialised snapshot never captures a document between
	// its rows landing in the tables and its entries landing in the
	// derived indexes.  Queries never touch it.  It is the outermost
	// lock of every mutation path.  netmarkvet:lockorder 10
	ckptMu sync.RWMutex

	// snapStat tracks the derived-snapshot lifecycle (see SnapshotStats).
	snapMu   sync.Mutex
	snapStat SnapshotStats // guarded by snapMu

	// generation counts store mutations: every document ingest (including
	// its link patches) and every delete bumps it.  Result caches key on
	// it, so a bump implicitly invalidates everything cached against the
	// previous state without the cache ever scanning its entries.
	// netmarkvet:snap
	generation atomic.Uint64
}

var xmlSchema = ordbms.MustSchema(
	ordbms.Column{Name: "nodeid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "docid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "nodetype", Type: ordbms.TypeInt},
	ordbms.Column{Name: "nodename", Type: ordbms.TypeString},
	ordbms.Column{Name: "nodedata", Type: ordbms.TypeString},
	ordbms.Column{Name: "ordinal", Type: ordbms.TypeInt},
	ordbms.Column{Name: "parentnodeid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "parentrowid", Type: ordbms.TypeBytes},
	ordbms.Column{Name: "prevrowid", Type: ordbms.TypeBytes},
	ordbms.Column{Name: "nextrowid", Type: ordbms.TypeBytes},
	ordbms.Column{Name: "childrowid", Type: ordbms.TypeBytes},
	ordbms.Column{Name: "attrs", Type: ordbms.TypeString},
)

var docSchema = ordbms.MustSchema(
	ordbms.Column{Name: "docid", Type: ordbms.TypeInt},
	ordbms.Column{Name: "filename", Type: ordbms.TypeString},
	ordbms.Column{Name: "filedate", Type: ordbms.TypeInt},
	ordbms.Column{Name: "filesize", Type: ordbms.TypeInt},
	ordbms.Column{Name: "format", Type: ordbms.TypeString},
	ordbms.Column{Name: "title", Type: ordbms.TypeString},
	ordbms.Column{Name: "rootrowid", Type: ordbms.TypeBytes},
	ordbms.Column{Name: "nnodes", Type: ordbms.TypeInt},
)

// OpenOptions tunes Open's behaviour.
type OpenOptions struct {
	// DisableSnapshot forces the full-scan derived rebuild on open and
	// stops the store from writing snapshots at checkpoints — the
	// ablation knob for measuring what snapshotting buys (and the escape
	// hatch should a snapshot ever be suspected of divergence).
	DisableSnapshot bool
}

// Open attaches the store to a database, creating the universal tables on
// first use.  On a persistent reopen the derived indexes (text index,
// context btree, node→CONTEXT map, generation maps, ID counters) are
// loaded from the checkpoint snapshot when its stamps prove the heap has
// not moved since it was written; otherwise — and always for in-memory
// stores — they are rebuilt by the full heap scan.
func Open(db *ordbms.DB) (*Store, error) {
	return OpenWith(db, OpenOptions{})
}

// OpenWith is Open with explicit options.
func OpenWith(db *ordbms.DB, opts OpenOptions) (*Store, error) {
	s := &Store{
		db:         db,
		content:    textindex.New(),
		contexts:   btree.New[string, ordbms.RowID](strings.Compare),
		ctxGens:    make(map[string]uint64),
		ctxIdx:     make(map[ordbms.RowID]ordbms.RowID),
		docGens:    make(map[uint64]uint64),
		nextNodeID: 1,
		nextDocID:  1,
	}
	if s.xml = db.Table("XML"); s.xml == nil {
		t, err := db.CreateTable("XML", xmlSchema)
		if err != nil {
			return nil, err
		}
		if err := t.CreateIndex("nodeid"); err != nil {
			return nil, err
		}
		if err := t.CreateIndex("docid"); err != nil {
			return nil, err
		}
		if err := t.CreateIndex("nodename"); err != nil {
			return nil, err
		}
		s.xml = t
	}
	if s.doc = db.Table("DOC"); s.doc == nil {
		t, err := db.CreateTable("DOC", docSchema)
		if err != nil {
			return nil, err
		}
		if err := t.CreateIndex("docid"); err != nil {
			return nil, err
		}
		if err := t.CreateIndex("filename"); err != nil {
			return nil, err
		}
		s.doc = t
	}
	if db.Dir() != "" && !opts.DisableSnapshot {
		s.snapStat.Enabled = true
		s.snapStat.Loaded, s.snapStat.Fallback = s.loadSnapshot(db)
	}
	if !s.snapStat.Loaded {
		if err := s.rebuildDerived(); err != nil {
			return nil, err
		}
	}
	// Register the save hook only now that the derived state is known
	// complete (loaded or fully rebuilt): a failed Open must never leave
	// a hook behind that could checkpoint half-built indexes under
	// current-looking stamps.
	if s.snapStat.Enabled {
		db.RegisterPreCheckpointHook(s.snapshotHook)
	}
	return s, nil
}

// rebuildDerived rescans the XML table to rebuild the text index, the
// context index, the node→governing-CONTEXT index and the ID counters
// after reopening a persistent store.  Runs during OpenWith, before
// the store is shared with any other goroutine.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (s *Store) rebuildDerived() error {
	// The scan collects a flatNode view of the stored forest (structural
	// links remapped from RowIDs to slice indexes) so the governing-
	// context resolution reuses the exact ingest-time algorithm
	// (governingContexts) instead of a second implementation that could
	// drift from it.
	var flat []flatNode
	idxOf := make(map[ordbms.RowID]int)
	type pendingLinks struct{ prev, parent ordbms.RowID }
	var pend []pendingLinks
	maxNode, maxDoc := uint64(0), uint64(0)
	err := s.xml.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		nodeID := uint64(row[xmlColNodeID].Int)
		docID := uint64(row[xmlColDocID].Int)
		if nodeID > maxNode {
			maxNode = nodeID
		}
		if docID > maxDoc {
			maxDoc = docID
		}
		class := sgml.NodeClass(row[xmlColNodeType].Int)
		idxOf[rid] = len(flat)
		flat = append(flat, flatNode{class: class, rid: rid, prev: -1, parent: -1, next: -1, child: -1})
		pend = append(pend, pendingLinks{
			prev:   bytesToRID(row[xmlColPrevRowID].Bytes),
			parent: bytesToRID(row[xmlColParentRowID].Bytes),
		})
		switch class {
		case sgml.ClassText:
			s.content.Add(rid.Uint64(), row[xmlColNodeData].Str)
		case sgml.ClassContext:
			s.addContextKey(row[xmlColNodeData].Str, rid)
		}
		return true
	})
	if err != nil {
		return err
	}
	for i := range flat {
		if j, ok := idxOf[pend[i].prev]; ok && !pend[i].prev.IsZero() {
			flat[i].prev = j
		}
		if j, ok := idxOf[pend[i].parent]; ok && !pend[i].parent.IsZero() {
			flat[i].parent = j
		}
	}
	governs := governingContexts(flat)
	for i := range flat {
		if flat[i].class != sgml.ClassText {
			continue
		}
		if g := governs[i]; g >= 0 {
			s.ctxIdx[flat[i].rid] = flat[g].rid
		} else {
			s.ctxIdx[flat[i].rid] = ordbms.ZeroRowID
		}
	}
	err = s.doc.Scan(func(_ ordbms.RowID, row ordbms.Row) bool {
		id := uint64(row[docColDocID].Int)
		if id > maxDoc {
			maxDoc = id
		}
		// Every stored document is live and queryable: give it a nonzero
		// generation so reopened stores expose the same "zero means not
		// live" stamp semantics a snapshot-loaded store does.
		s.bumpDocGeneration(id)
		return true
	})
	if err != nil {
		return err
	}
	s.nextNodeID = maxNode + 1
	s.nextDocID = maxDoc + 1
	return nil
}

func (s *Store) addContextKey(heading string, rid ordbms.RowID) {
	key := normalizeContext(heading)
	if key == "" {
		return
	}
	s.ctxMu.Lock()
	s.contexts.Insert(key, rid)
	s.ctxGenCounter++
	s.ctxGens[key] = s.ctxGenCounter
	s.ctxMu.Unlock()
}

func (s *Store) removeContextKey(heading string, rid ordbms.RowID) {
	key := normalizeContext(heading)
	if key == "" {
		return
	}
	s.ctxMu.Lock()
	s.contexts.Delete(key, func(r ordbms.RowID) bool { return r == rid })
	if len(s.contexts.Get(key)) == 0 {
		// Last bearer gone: prune the gen entry so heading churn cannot
		// grow the map without bound.  ContextGen reverts to 0, which
		// differs from every generation the heading held while live, and
		// the only results ever cached under 0 were computed while the
		// heading was absent — i.e. empty, which is again correct.
		delete(s.ctxGens, key)
	} else {
		s.ctxGenCounter++
		s.ctxGens[key] = s.ctxGenCounter
	}
	s.ctxMu.Unlock()
}

// ContextGen returns the heading's mutation generation: it changes
// exactly when a CONTEXT node bearing the (normalised) heading is added
// or removed, and is zero for headings the store has never held.  Result
// caches fold it into the key of an exact-context query, so writes that
// never touch the heading leave cached results reachable.
func (s *Store) ContextGen(heading string) uint64 {
	key := normalizeContext(heading)
	s.ctxMu.RLock()
	g := s.ctxGens[key]
	s.ctxMu.RUnlock()
	return g
}

// ContextPrefixGen fingerprints the part of the context index a prefix
// query reads: the set of matching headings and each one's generation.
// Any heading added under, removed from, or mutated within the prefix
// changes the value.  The ascent is bounded: a prefix matching more
// than prefixGenKeyBudget headings folds the global generation instead,
// so a cache-key computation never scans an unbounded slice of the
// index under ctxMu (broad prefixes trade invalidation precision for
// O(1) lookups).
func (s *Store) ContextPrefixGen(prefix string) uint64 {
	const prefixGenKeyBudget = 64
	key := normalizeContext(prefix)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	n := 0
	s.ctxMu.RLock()
	s.contexts.AscendPrefixFunc(key,
		func(k string) bool { return strings.HasPrefix(k, key) },
		func(k string, _ []ordbms.RowID) bool {
			if n++; n > prefixGenKeyBudget {
				return false
			}
			for i := 0; i < len(k); i++ {
				h = (h ^ uint64(k[i])) * prime64
			}
			h = (h ^ s.ctxGens[k]) * prime64
			return true
		})
	s.ctxMu.RUnlock()
	if n > prefixGenKeyBudget {
		h = (h ^ s.generation.Load()) * prime64
	}
	return h
}

// DocGeneration returns a document's mutation generation: assigned when
// the document becomes fully queryable, pruned to zero when a delete
// starts tearing it down.  Zero therefore means "not live" (never
// stored, or deleted) — which mismatches every nonzero stamp a cached
// result captured while the document was live, so stamp validation
// still catches deletes while doc churn cannot grow the map without
// bound.
func (s *Store) DocGeneration(docID uint64) uint64 {
	s.docGenMu.RLock()
	g := s.docGens[docID]
	s.docGenMu.RUnlock()
	return g
}

func (s *Store) bumpDocGeneration(docID uint64) {
	s.docGenMu.Lock()
	s.docGenCounter++
	s.docGens[docID] = s.docGenCounter
	s.docGenMu.Unlock()
}

func (s *Store) pruneDocGeneration(docID uint64) {
	s.docGenMu.Lock()
	delete(s.docGens, docID)
	s.docGenMu.Unlock()
}

// normalizeContext lowercases and squeezes whitespace so context matching
// is forgiving about case and layout (Context=introduction matches the
// "Introduction" heading).
func normalizeContext(h string) string {
	return strings.ToLower(strings.Join(strings.Fields(h), " "))
}

// DB returns the underlying database (for stats and checkpoints).
func (s *Store) DB() *ordbms.DB { return s.db }

// Stats returns ingestion counters.
func (s *Store) Stats() (docs, nodes uint64) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.docsIngested, s.nodesInserted
}

// Generation returns the store's mutation generation.  It changes after
// every ingest, link patch, and delete; readers snapshot it *before*
// executing a query, so a result tagged with a generation can never be
// newer than the state it was computed from.
func (s *Store) Generation() uint64 { return s.generation.Load() }

// bumpGeneration marks the store mutated.  Called on every write path,
// including failed ones — a half-applied mutation must still invalidate.
func (s *Store) bumpGeneration() { s.generation.Add(1) }

// NumDocuments returns the number of stored documents.
func (s *Store) NumDocuments() int64 { return s.doc.Rows() }

// NumNodes returns the number of stored nodes.
func (s *Store) NumNodes() int64 { return s.xml.Rows() }

// rowToNode decodes an XML-table row.
func rowToNode(rid ordbms.RowID, row ordbms.Row) *Node {
	return &Node{
		Attrs:       decodeAttrs(row[xmlColAttrs].Str),
		NodeID:      uint64(row[xmlColNodeID].Int),
		DocID:       uint64(row[xmlColDocID].Int),
		Class:       sgml.NodeClass(row[xmlColNodeType].Int),
		Name:        row[xmlColNodeName].Str,
		Data:        row[xmlColNodeData].Str,
		Ordinal:     int(row[xmlColOrdinal].Int),
		ParentID:    uint64(row[xmlColParentNodeID].Int),
		RowID:       rid,
		ParentRowID: bytesToRID(row[xmlColParentRowID].Bytes),
		PrevRowID:   bytesToRID(row[xmlColPrevRowID].Bytes),
		NextRowID:   bytesToRID(row[xmlColNextRowID].Bytes),
		ChildRowID:  bytesToRID(row[xmlColChildRowID].Bytes),
	}
}

func rowToDoc(rid ordbms.RowID, row ordbms.Row) *DocInfo {
	return &DocInfo{
		DocID:     uint64(row[docColDocID].Int),
		FileName:  row[docColFileName].Str,
		FileDate:  row[docColFileDate].Int,
		FileSize:  row[docColFileSize].Int,
		Format:    row[docColFormat].Str,
		Title:     row[docColTitle].Str,
		RootRowID: bytesToRID(row[docColRootRowID].Bytes),
		NNodes:    row[docColNNodes].Int,
		RowID:     rid,
	}
}

func ridToBytes(rid ordbms.RowID) []byte {
	b := make([]byte, 8)
	putRID(b, rid)
	return b
}

func bytesToRID(b []byte) ordbms.RowID {
	if len(b) != 8 {
		return ordbms.ZeroRowID
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return ordbms.RowIDFromUint64(v)
}

// EnableNodeCache attaches a decoded-node cache capped at capacity
// bytes.  Call during setup, before the store serves traffic; capacity
// <= 0 disables caching.  Nodes served from the cache are shared across
// callers and must be treated as read-only (every traversal already
// does).
func (s *Store) EnableNodeCache(capacity int64) {
	if capacity <= 0 {
		s.nodes = nil
		return
	}
	s.nodes = newNodeCache(capacity)
}

// NodeCacheStats snapshots the decoded-node cache counters; ok is false
// when no cache is enabled.
func (s *Store) NodeCacheStats() (stats NodeCacheStats, ok bool) {
	if s.nodes == nil {
		return NodeCacheStats{}, false
	}
	return s.nodes.stats(), true
}

// SetQueryWorkers bounds the section-materialisation fan-out used by the
// search kernels: n <= 0 means GOMAXPROCS, 1 means serial.  Call during
// setup.
func (s *Store) SetQueryWorkers(n int) { s.queryWorkers = n }

// SetContextIndexEnabled toggles the derived node→governing-CONTEXT
// index consulted by ContextFor.  It exists for the kernel ablation
// benchmarks (compare the O(1) probe against the paper's pointer-chasing
// walk); call during setup only.
func (s *Store) SetContextIndexEnabled(enabled bool) { s.ctxIdxOff = !enabled }

// FetchNode reads the node at a physical RowID — one traversal hop.
// With the node cache enabled a warm hop is a shard map probe; a cold
// hop decodes straight from the latched page into a fresh Node with no
// intermediate Row or record copy.
//
// netmarkvet:hotpath
func (s *Store) FetchNode(rid ordbms.RowID) (*Node, error) {
	c := s.nodes
	if c == nil {
		return s.fetchNodeUncached(rid) // netmarkvet:allocok — uncached store: every hop decodes a fresh Node
	}
	if n, ok := c.get(rid); ok {
		return n, nil
	}
	token := c.beginFill(rid)
	n, err := s.fetchNodeUncached(rid) // netmarkvet:allocok — cold hop: the decoded Node is the product
	if err != nil {
		return nil, err
	}
	c.completeFill(rid, n, token) // netmarkvet:allocok — publishing the fill allocates the cache entry
	return n, nil
}

// fetchNodeUncached is the cold fetch path: one shared table lock, one
// page latch, and a decode into stack storage — no per-hop Row
// allocation, no record copy.
func (s *Store) fetchNodeUncached(rid ordbms.RowID) (*Node, error) {
	var cols [xmlColAttrs + 1]ordbms.Value
	err := s.xml.FetchView(rid, func(rec []byte) error {
		return ordbms.DecodeRowInto(rec, cols[:])
	})
	if err != nil {
		return nil, err
	}
	return rowToNode(rid, cols[:]), nil
}

// fetchNodesBatch resolves many RowIDs (sorted into physical order by
// the caller) to decoded nodes: cache hits are probed first, the misses
// are decoded under one table lock acquisition and one page pin per page
// (Table.ViewMany) into stack storage, and the fresh decodes are
// published to the cache under their fill tokens.  out[i] is nil when
// rid i's record was deleted.
func (s *Store) fetchNodesBatch(rids []ordbms.RowID) ([]*Node, error) {
	out := make([]*Node, len(rids))
	c := s.nodes
	miss, missIdx := rids, []int(nil)
	var tokens []uint64
	if c != nil {
		miss = nil
		for i, rid := range rids {
			if n, ok := c.get(rid); ok {
				out[i] = n
				continue
			}
			missIdx = append(missIdx, i)
			miss = append(miss, rid)
			tokens = append(tokens, c.beginFill(rid))
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	var cols [xmlColAttrs + 1]ordbms.Value
	err := s.xml.ViewMany(miss, func(j int, rec []byte) error {
		if err := ordbms.DecodeRowInto(rec, cols[:]); err != nil {
			return err
		}
		i := j
		if missIdx != nil {
			i = missIdx[j]
		}
		out[i] = rowToNode(miss[j], cols[:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		if out[i] != nil {
			c.completeFill(miss[j], out[i], tokens[j])
		}
	}
	return out, nil
}

// FetchNodeByID resolves a node through the NODEID secondary index — the
// traversal path a system without physical RowID links would use (B-tree
// probe plus heap fetch per hop).  It exists for the rowid-traversal
// ablation; the store itself always follows RowIDs.
func (s *Store) FetchNodeByID(nodeID uint64) (*Node, error) {
	rids, err := s.xml.Lookup("nodeid", ordbms.I(int64(nodeID)))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, fmt.Errorf("xmlstore: no node %d", nodeID)
	}
	return s.FetchNode(rids[0])
}

// Parent follows the parent link (ZeroRowID at the root).
func (s *Store) Parent(n *Node) (*Node, error) {
	if n.ParentRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.ParentRowID)
}

// NextSibling follows the next-sibling link.
func (s *Store) NextSibling(n *Node) (*Node, error) {
	if n.NextRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.NextRowID)
}

// PrevSibling follows the previous-sibling link.
func (s *Store) PrevSibling(n *Node) (*Node, error) {
	if n.PrevRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.PrevRowID)
}

// FirstChild follows the first-child link.
func (s *Store) FirstChild(n *Node) (*Node, error) {
	if n.ChildRowID.IsZero() {
		return nil, nil
	}
	return s.FetchNode(n.ChildRowID)
}

// ScanNodes iterates every stored node in physical order (used by
// full-scan baselines and integrity checks).
func (s *Store) ScanNodes(fn func(n *Node) bool) error {
	return s.xml.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		return fn(rowToNode(rid, row))
	})
}

// ErrNoDocument reports a document ID or name with no DOC row — either
// never stored or already deleted.  Readers racing a delete match it
// (with errors.Is) to skip the vanishing document instead of failing.
var ErrNoDocument = fmt.Errorf("xmlstore: no such document")

// IsGone reports whether err means a row or document vanished — the
// signature of racing a concurrent delete.  Readers skip gone items;
// any other error (I/O, corruption) must propagate.
func IsGone(err error) bool {
	return errors.Is(err, ErrNoDocument) || errors.Is(err, ordbms.ErrRecordDeleted)
}

// ErrDegraded is the engine's degraded-mode sentinel, re-exported so
// callers of the store API can match it without importing ordbms.
// Ingest and delete return it while the store is read-only after
// persistent write failure; search and reconstruction keep working.
var ErrDegraded = ordbms.ErrDegraded

// IsDegraded reports whether err means the store is in degraded
// read-only mode — the caller should retry later (HTTP layers answer
// 503 with Retry-After).
func IsDegraded(err error) bool {
	return errors.Is(err, ErrDegraded)
}

// IsTransient classifies an ingest failure as retryable: the document
// itself is fine, the store just could not persist it right now (device
// fault or degraded mode).  Parse and validation failures are permanent
// — retrying the same bytes cannot succeed — and callers quarantine
// them instead.
func IsTransient(err error) bool {
	return IsDegraded(err) || ordbms.IsIOFault(err)
}

// Health reports the underlying engine's write health (degraded mode,
// the fault that caused it, and the lifetime write-error count).
func (s *Store) Health() ordbms.HealthStatus {
	return s.db.Health()
}

// Document returns metadata for a document ID.
func (s *Store) Document(docID uint64) (*DocInfo, error) {
	rids, err := s.doc.Lookup("docid", ordbms.I(int64(docID)))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, fmt.Errorf("%w: id %d", ErrNoDocument, docID)
	}
	row, err := s.doc.Fetch(rids[0])
	if err != nil {
		return nil, err
	}
	return rowToDoc(rids[0], row), nil
}

// Documents lists all stored documents.
func (s *Store) Documents() ([]*DocInfo, error) {
	var out []*DocInfo
	err := s.doc.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		out = append(out, rowToDoc(rid, row))
		return true
	})
	return out, err
}

// DocumentByName returns metadata for a file name.
func (s *Store) DocumentByName(name string) (*DocInfo, error) {
	rids, err := s.doc.Lookup("filename", ordbms.S(name))
	if err != nil {
		return nil, err
	}
	if len(rids) == 0 {
		return nil, fmt.Errorf("%w: name %q", ErrNoDocument, name)
	}
	row, err := s.doc.Fetch(rids[0])
	if err != nil {
		return nil, err
	}
	return rowToDoc(rids[0], row), nil
}

// ContentIndex exposes the text index (the query planner consults DF).
func (s *Store) ContentIndex() *textindex.Index { return s.content }

// TextIndexStats reports the text index's posting-list storage counters
// (block counts, resident bytes, compression ratio) for /stats.
func (s *Store) TextIndexStats() textindex.Stats { return s.content.Stats() }

// ContextCount returns how many CONTEXT nodes carry the heading.
func (s *Store) ContextCount(heading string) int {
	s.ctxMu.RLock()
	defer s.ctxMu.RUnlock()
	return len(s.contexts.Get(normalizeContext(heading)))
}

// ContextHeadings lists the distinct normalised headings in the store.
func (s *Store) ContextHeadings() []string {
	s.ctxMu.RLock()
	defer s.ctxMu.RUnlock()
	out := make([]string, 0, s.contexts.Keys())
	s.contexts.Ascend(func(k string, _ []ordbms.RowID) bool {
		out = append(out, k)
		return true
	})
	return out
}
