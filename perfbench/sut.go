package main

// The system under test: one netmark instance opened with core.Open on
// an on-disk directory, served by webdav.Server over a real loopback
// listener.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netmark/internal/core"
	"netmark/internal/corpus"
	"netmark/internal/experiments"
	"netmark/internal/webdav"
)

// sut is a running instance and its server.
type sut struct {
	cfg  core.Config
	nm   *core.Netmark
	srv  *webdav.Server
	base string // http://127.0.0.1:port
	stop context.CancelFunc
	done chan error
}

// openSUT opens (or reopens) the store in cfg.Dir without serving it.
func openSUT(cfg core.Config) (*sut, error) {
	nm, err := core.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", cfg.Dir, err)
	}
	srv, err := nm.HTTPServer()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("http server: %w", err), nm.Close())
	}
	return &sut{cfg: cfg, nm: nm, srv: srv}, nil
}

// serve starts the HTTP server on a fresh loopback listener.  With wrap
// nil it runs webdav.Server.ServeListener unchanged; the traced run
// passes a wrapper around Server.Handler() and hosts it on an
// http.Server with the same default timeouts.
func (s *sut) serve(wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.base = "http://" + ln.Addr().String()
	s.stop = cancel
	s.done = make(chan error, 1)
	if wrap == nil {
		go func() { s.done <- s.srv.ServeListener(ctx, ln) }()
		return nil
	}
	hs := &http.Server{
		Handler:           wrap(s.srv.Handler()),
		ReadTimeout:       webdav.DefaultReadTimeout,
		ReadHeaderTimeout: webdav.DefaultReadTimeout,
		WriteTimeout:      webdav.DefaultWriteTimeout,
		IdleTimeout:       webdav.DefaultIdleTimeout,
	}
	go func() {
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.done <- err
	}()
	go func() {
		<-ctx.Done()
		hs.Close()
	}()
	return nil
}

// shutdown stops the server (if serving) and closes the store.
func (s *sut) shutdown() error {
	var err error
	if s.stop != nil {
		s.stop()
		err = <-s.done
		s.stop = nil
	}
	return errors.Join(err, s.nm.Close())
}

// discard shuts an instance down and deletes its store directory.
func (s *sut) discard() error {
	if err := s.shutdown(); err != nil {
		return err
	}
	return removeAll(s.cfg.Dir)
}

// setup is the measured set-up: Open, bulk IngestBatch of the base
// corpus, server start and stylesheet registration over PUT /xslt/ibpd.
func setup(cfg core.Config, docs []corpus.Document, c *client, wrap func(http.Handler) http.Handler) (*sut, time.Duration, error) {
	t0 := time.Now()
	s, err := openSUT(cfg)
	if err != nil {
		return nil, 0, err
	}
	batch := make([]core.Doc, len(docs))
	for i, d := range docs {
		batch[i] = core.Doc{Name: d.Name, Data: d.Data}
	}
	for _, r := range s.nm.IngestBatch(batch) {
		if r.Err != nil {
			return nil, 0, errors.Join(fmt.Errorf("ingest %s: %w", r.Name, r.Err), s.shutdown())
		}
	}
	if err := s.serve(wrap); err != nil {
		return nil, 0, errors.Join(err, s.shutdown())
	}
	if err := c.put(s.base+"/xslt/"+stylesheetName, experiments.IBPDStylesheet); err != nil {
		return nil, 0, errors.Join(err, s.shutdown())
	}
	return s, time.Since(t0), nil
}

// referenceConfig is the oracle's configuration: both caches off and
// serial section materialisation.  The context index is switched off
// after open (it has no Config field).
func referenceConfig(dir string) core.Config {
	return core.Config{Dir: dir, CacheBytes: -1, NodeCacheBytes: -1, QueryWorkers: 1}
}

func openReference(dir string) (*core.Netmark, error) {
	nm, err := core.Open(referenceConfig(dir))
	if err != nil {
		return nil, fmt.Errorf("open reference: %w", err)
	}
	nm.Store().SetContextIndexEnabled(false)
	if err := nm.RegisterStylesheet(stylesheetName, experiments.IBPDStylesheet); err != nil {
		return nil, errors.Join(err, nm.Close())
	}
	return nm, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// client is the load generator's HTTP client: keep-alive connections
// over loopback, no proxy, no compression.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches url into buf (reset first) and returns the status code.
func (c *client) get(url string, buf *bytes.Buffer, hdr http.Header) (int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (c *client) put(url, body string) error {
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT %s: status %d", url, resp.StatusCode)
	}
	return nil
}

func (c *client) delete(url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// removeAll deletes a store directory, tolerating one that is gone.
func removeAll(dir string) error {
	if err := os.RemoveAll(dir); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
