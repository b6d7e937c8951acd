package ordbms

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"netmark/internal/vfs"
)

// Options configures a database instance.
type Options struct {
	// Dir is the directory holding the data file, WAL and catalog.
	// Empty means a volatile in-memory store with no logging.
	Dir string
	// PoolPages caps the buffer pool (default 4096 pages = 32 MiB).
	PoolPages int
	// SyncOnCommit forces an fsync of the WAL on every Commit call.
	// Defaults to true for durable stores.
	NoSyncOnCommit bool
	// NoDerivedSnapshot disables writing and loading the engine's derived
	// snapshot (heap metadata + secondary index contents), forcing the
	// full-scan rebuild on every open — the ablation knob for measuring
	// what the snapshot buys.
	NoDerivedSnapshot bool
	// FS routes every file operation the store performs (data file, WAL,
	// catalog, snapshots).  Nil means the real filesystem; fault-injection
	// tests pass a vfs.FaultFS.
	FS vfs.FS
}

// DB is the database engine facade: a disk manager, buffer pool, WAL and a
// set of tables.
type DB struct {
	// mu serialises DDL against table lookup.  netmarkvet:lockorder 10
	mu   sync.RWMutex
	opts Options
	dir  string
	fs   vfs.FS
	disk DiskManager
	pool *BufferPool
	wal  *WAL

	// health tracks degraded read-only mode: write-path I/O failures
	// flip it, a successful checkpoint clears it.
	health healthState

	tables map[string]*Table // guarded by mu

	// catalogGen is the generation of the catalog as loaded from disk,
	// advanced on every successful checkpoint.  Snapshot stamps compare
	// against it.
	catalogGen uint64

	// preCkpt holds the registered pre-checkpoint hooks, run inside the
	// checkpoint critical section after all pages are flushed and before
	// the catalog is saved and the WAL truncated.
	preCkpt []func(CheckpointInfo) error

	// ckptFault, when set, injects a simulated crash at a named step of
	// the checkpoint sequence (test-only; see SetCheckpointFault).
	ckptFault func(step string) error

	// walAllocs maps table name to pages the WAL says it adopted —
	// collected during recovery, merged into the catalog page lists by
	// loadCatalog (the catalog only learns about pages at checkpoints).
	walAllocs map[string][]uint32
	// allocsGrew reports that some table's page list had to be extended
	// beyond what the catalog recorded.
	allocsGrew bool
	// walEndAtOpen is the WAL's end LSN captured right after recovery —
	// the stamp persisted derived snapshots must carry to be current.
	walEndAtOpen uint64

	// Replayed reports how many WAL records crash recovery applied when
	// the store was opened (0 for clean shutdowns and fresh stores).
	Replayed int

	// DerivedLoads reports how many tables were opened from the derived
	// snapshot instead of a heap scan (0 when the snapshot was missing,
	// stale, corrupt, or disabled).
	DerivedLoads int
}

// CheckpointInfo is handed to pre-checkpoint hooks.  At hook time every
// dirty page is flushed and fsynced; CatalogGen and LSN are the stamps
// the checkpoint is about to commit, so derived state persisted under
// them is exactly as current as the catalog and WAL the reopening
// process will observe.
type CheckpointInfo struct {
	// Dir is the database directory the hook should persist into.
	Dir string
	// CatalogGen is the catalog generation this checkpoint will write.
	CatalogGen uint64
	// LSN is the WAL LSN the checkpoint truncates through — the new base
	// LSN after the checkpoint completes.
	LSN uint64
	// FS is the filesystem the snapshot must be written through (the
	// store's configured vfs; nil falls back to the real filesystem).
	FS vfs.FS
	// Fault is the test-only crash injector (nil in production): hooks
	// performing multi-step writes call it between steps and abort when
	// it returns an error, leaving files as a crash would.
	Fault func(step string) error
}

// filesystem returns the FS snapshots are written through, defaulting
// to the real one.
func (ci CheckpointInfo) filesystem() vfs.FS {
	if ci.FS == nil {
		return vfs.OS
	}
	return ci.FS
}

// WriteSnapshotFile commits a snapshot into the checkpoint's directory
// with the engine's crash-durability sequence — temp file, fsync,
// rename, directory fsync — calling the fault injector (when armed) at
// "<step>-temp" and "<step>-rename".  Hooks use it so every snapshot in
// the checkpoint shares one implementation of the atomic write.
func (ci CheckpointInfo) WriteSnapshotFile(name string, data []byte, step string) error {
	fsys := ci.filesystem()
	path := filepath.Join(ci.Dir, name)
	if err := writeFileSync(fsys, path+".tmp", data); err != nil {
		return err
	}
	if ci.Fault != nil {
		if err := ci.Fault(step + "-temp"); err != nil {
			return err
		}
	}
	if err := fsys.Rename(path+".tmp", path); err != nil {
		return err
	}
	if ci.Fault != nil {
		if err := ci.Fault(step + "-rename"); err != nil {
			return err
		}
	}
	return syncDir(fsys, ci.Dir)
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	if opts.PoolPages == 0 {
		opts.PoolPages = 4096
	}
	db := &DB{opts: opts, dir: opts.Dir, fs: opts.FS, tables: make(map[string]*Table)}
	if db.fs == nil {
		db.fs = vfs.OS
	}
	if opts.Dir == "" {
		db.disk = NewMemDisk()
		db.pool = NewBufferPool(db.disk, opts.PoolPages)
		return db, nil
	}
	if err := db.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ordbms: create dir: %w", err)
	}
	disk, err := OpenFileDisk(db.fs, filepath.Join(opts.Dir, "data.nmdb"))
	if err != nil {
		return nil, err
	}
	wal, err := OpenWAL(db.fs, filepath.Join(opts.Dir, "wal.nmlog"))
	if err != nil {
		disk.Close()
		return nil, err
	}
	db.disk = disk
	db.wal = wal
	db.pool = NewBufferPool(disk, opts.PoolPages)
	wal.AttachTo(db.pool)
	// The open is doomed on these paths; closing may itself fail, and a
	// failed WAL close is durability information, so fold it into the
	// reported error instead of dropping it.
	fail := func(e error) error {
		return errors.Join(e, wal.Close(), disk.Close())
	}
	replayed, allocs, ops, torn, err := Recover(disk, db.pool, wal)
	if err != nil {
		return nil, fail(fmt.Errorf("ordbms: recovery failed: %w", err))
	}
	db.Replayed = replayed
	db.walAllocs = allocs
	db.walEndAtOpen = wal.SyncedLSN()
	if err := db.loadCatalog(); err != nil {
		return nil, fail(err)
	}
	if err := db.applyRecoveredOps(ops); err != nil {
		return nil, fail(err)
	}
	if replayed > 0 || db.allocsGrew || torn {
		// Re-establish the checkpoint invariants recovery consumed: the
		// catalog must record every page the replayed records adopted
		// before those records can be dropped, so run the full sequence
		// (derived snapshot, catalog, WAL truncation) rather than bare
		// WAL surgery.  A torn tail forces this too — new records
		// appended after surviving garbage would be unreachable by the
		// next replay, so the garbage must be truncated away before any
		// append happens.
		if err := db.Checkpoint(); err != nil {
			return nil, fail(fmt.Errorf("ordbms: post-recovery checkpoint: %w", err))
		}
	}
	return db, nil
}

// InMemory reports whether the store is volatile.
func (db *DB) InMemory() bool { return db.dir == "" }

// Pool exposes the buffer pool for stats.
func (db *DB) Pool() *BufferPool { return db.pool }

// CreateTable registers a new table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("ordbms: empty table name")
	}
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("ordbms: table %q already exists", name)
	}
	t := &Table{
		db:      db,
		name:    name,
		schema:  schema,
		heap:    NewHeapFile(db.pool, db.wal),
		indexes: make(map[string]*Index),
	}
	t.heap.tag = name
	if db.wal != nil {
		db.wal.LogCreateTable(name, schema)
	}
	db.tables[name] = t
	return t, nil
}

// applyRecoveredOps replays logged DDL the catalog has not seen: tables
// created (with their committed pages), indexes added, tables dropped —
// all since the last checkpoint.  Ops the catalog already reflects are
// skipped; applying anything marks the catalog stale so Open runs a
// full checkpoint to persist the merged state.  Runs during Open,
// before the DB is shared with any other goroutine.
//
// netmarkvet:ignore lockcheck — open-time, single-goroutine
func (db *DB) applyRecoveredOps(ops []RecoveredOp) error {
	for _, op := range ops {
		switch op.Kind {
		case walCreateTable:
			if _, exists := db.tables[op.Table]; exists {
				continue
			}
			schema, err := NewSchema(op.Cols...)
			if err != nil {
				return fmt.Errorf("ordbms: recovered create of %q: %w", op.Table, err)
			}
			heap, err := OpenHeapFile(db.pool, db.wal, db.walAllocs[op.Table])
			if err != nil {
				return err
			}
			heap.tag = op.Table
			db.tables[op.Table] = &Table{
				db: db, name: op.Table, schema: schema,
				heap: heap, indexes: make(map[string]*Index),
			}
			db.allocsGrew = true
		case walCreateIndex:
			t := db.tables[op.Table]
			if t == nil {
				continue
			}
			if _, dup := t.indexes[op.Column]; dup {
				continue
			}
			if err := t.buildIndexLocked(op.Column); err != nil {
				return err
			}
			db.allocsGrew = true
		case walDropTable:
			if _, ok := db.tables[op.Table]; ok {
				delete(db.tables, op.Table)
				db.allocsGrew = true
			}
		}
	}
	return nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// DropTable removes a table.  Its pages are abandoned (vacuum is a
// non-goal for the reproduction).
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("ordbms: no table %q", name)
	}
	if db.wal != nil {
		db.wal.LogDropTable(name)
	}
	delete(db.tables, name)
	return nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Commit makes all mutations so far durable: the WAL is flushed (and
// fsynced unless disabled).  Concurrent commits coalesce into one fsync
// (WAL group commit).  In-memory stores are a no-op.  A commit failure
// degrades the store (see Writable); the data whose commit failed is
// reported failed, never silently acked.
func (db *DB) Commit() error {
	if db.wal == nil {
		return nil
	}
	if err := db.Writable(); err != nil {
		return err
	}
	var err error
	if db.opts.NoSyncOnCommit {
		err = db.wal.Flush(db.wal.NextLSN())
	} else {
		err = db.wal.Sync()
	}
	if err != nil {
		db.noteWriteError("wal commit", err)
	}
	return err
}

// FS returns the filesystem all of the store's file I/O goes through.
// Layered stores (xmlstore) use it for their own snapshot reads so
// fault injection covers them too.
func (db *DB) FS() vfs.FS {
	if db.fs == nil {
		return vfs.OS
	}
	return db.fs
}

// WALStats returns (records appended, fsyncs issued), both zero for
// in-memory stores.  Group-commit batching shows up as syncs growing per
// batch while appends grow per record.
func (db *DB) WALStats() (appends, syncs uint64) {
	if db.wal == nil {
		return 0, 0
	}
	return db.wal.Appends(), db.wal.Syncs()
}

// RegisterPreCheckpointHook installs fn to run inside every checkpoint's
// critical section, after all pages are flushed and before the catalog
// is saved and the WAL truncated.  Stores layered on the engine persist
// their derived state here, stamped with the CheckpointInfo values, so a
// reopen can tell exactly whether that state matches the heap.  A hook
// error aborts the checkpoint (the WAL keeps its records, so nothing is
// lost).  Hooks must not call back into DB methods.
func (db *DB) RegisterPreCheckpointHook(fn func(CheckpointInfo) error) {
	db.mu.Lock()
	db.preCkpt = append(db.preCkpt, fn)
	db.mu.Unlock()
}

// CatalogGen returns the catalog generation currently on disk.
func (db *DB) CatalogGen() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.catalogGen
}

// WALBaseLSN returns the LSN the on-disk log starts at (0 for in-memory
// stores).
func (db *DB) WALBaseLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.BaseLSN()
}

// WALEndLSN returns the log's end LSN as captured at open, before any
// new activity.  A derived snapshot is current exactly when it is
// stamped with this LSN and recovery replayed nothing: every logged
// record was already reflected in the flushed heap the snapshot
// serialised, and nothing was logged since.
func (db *DB) WALEndLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.walEndAtOpen
}

// Dir returns the storage directory ("" for in-memory stores).
func (db *DB) Dir() string { return db.dir }

// SetCheckpointFault installs a test-only crash injector: fn is invoked
// at each named step of the checkpoint sequence ("snapshot-temp",
// "snapshot-rename", "derived-temp", "derived-rename", "catalog-temp",
// "catalog-rename", "wal-temp", "wal-rename") and a returned error
// aborts the checkpoint at that point, leaving the files exactly as a
// crash there would.  Never set in production.
func (db *DB) SetCheckpointFault(fn func(step string) error) {
	db.mu.Lock()
	db.ckptFault = fn
	db.mu.Unlock()
}

// Checkpoint flushes all pages, persists derived snapshots and the
// catalog, and truncates the WAL.  After a clean checkpoint, reopening
// replays nothing and loads derived state directly.
//
// The sequence is crash-safe at every step: the catalog and the WAL
// successor are written temp-file-first with fsyncs and committed by
// rename, and every derived snapshot is stamped with the catalog
// generation and checkpoint LSN so a reopen after a mid-sequence crash
// either sees matching stamps (state is current) or falls back to the
// WAL replay + full-scan rebuild path.
func (db *DB) Checkpoint() error {
	if err := db.checkpoint(); err != nil {
		// A failed checkpoint is a write-path failure: durability could
		// not be re-established, so the store (stays) degraded.
		db.noteWriteError("checkpoint", err)
		return err
	}
	// A checkpoint that completed proved the device writable end to end
	// (pages, snapshots, catalog, WAL swap all written and fsynced), so
	// write service can resume.
	db.clearDegraded()
	return nil
}

func (db *DB) checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var cut uint64
	if db.wal != nil {
		if err := db.wal.Sync(); err != nil && db.wal.Poisoned() == nil {
			return err
		}
		// A poisoned log does not abort the checkpoint: the WAL swap at
		// the end rebuilds the log on a fresh handle, which is exactly
		// the repair path.  cut stays at the last trustworthy fsync, so
		// every record in doubt survives into (and is fsynced with) the
		// successor file.
		//
		// Records at or below cut are covered by the page flush below;
		// records appended after it (concurrent writers) survive the
		// truncation as the new log's tail.
		cut = db.wal.SyncedLSN()
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if db.dir != "" {
		gen := db.catalogGen + 1
		info := CheckpointInfo{Dir: db.dir, CatalogGen: gen, LSN: cut, FS: db.fs, Fault: db.ckptFault}
		for _, hook := range db.preCkpt {
			if err := hook(info); err != nil {
				return err
			}
		}
		if !db.opts.NoDerivedSnapshot {
			if err := db.saveDerivedLocked(gen, cut); err != nil {
				return err
			}
		}
		if err := db.saveCatalogLocked(gen); err != nil {
			return err
		}
		db.catalogGen = gen
	}
	if db.wal != nil {
		return db.wal.checkpointTo(cut, db.ckptFault)
	}
	return nil
}

// Close checkpoints and releases all resources.
func (db *DB) Close() error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil {
			return err
		}
	}
	return db.disk.Close()
}

// CloseDiscard releases file handles without checkpointing or flushing —
// the "process died" close.  Tests use it to materialise a crash;
// read-only opens (benchmark reopen loops) use it to avoid paying a
// checkpoint for a store they never mutated.  Anything not already
// durable is lost, exactly as in a crash.
func (db *DB) CloseDiscard() error {
	if db.wal != nil {
		db.wal.closeFile()
	}
	return db.disk.Close()
}

// Table is a heap of rows plus secondary indexes.  Reads take a shared
// lock; mutations take an exclusive lock (table-level locking, which is
// what the paper's insert-heavy document workload needs — documents are
// written once and queried many times).
type Table struct {
	db   *DB
	name string

	// mu is the table-level lock.  netmarkvet:lockorder 20
	mu     sync.RWMutex
	schema Schema
	// heap's row/free meta rides in the derived snapshot; dropping it
	// from either codec path silently degrades reopen to a full scan.
	// netmarkvet:snap
	heap *HeapFile
	// indexes is mutated by CreateIndex while queries resolve index
	// names.  Guarded by mu.  netmarkvet:snap
	indexes map[string]*Index
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// writable rejects mutations while the store is degraded (nil db — a
// bare table in tests — never degrades).
func (t *Table) writable() error {
	if t.db == nil {
		return nil
	}
	return t.db.Writable()
}

// noteIfIOFault degrades the store when a mutation failed because of
// the device (not because of a logical error), then passes err through.
func (t *Table) noteIfIOFault(op string, err error) error {
	if err != nil && t.db != nil && IsIOFault(err) {
		t.db.noteWriteError(op, err)
	}
	return err
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Rows returns the live row count.
func (t *Table) Rows() int64 { return t.heap.Rows() }

// Insert validates and stores a row, returning its physical RowID.
//
// netmarkvet:mutates
func (t *Table) Insert(row Row) (RowID, error) {
	if err := t.schema.Validate(row); err != nil {
		return ZeroRowID, err
	}
	if err := t.writable(); err != nil {
		return ZeroRowID, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(EncodeRow(row))
	if err != nil {
		return ZeroRowID, t.noteIfIOFault("insert", err)
	}
	for _, ix := range t.indexes {
		ix.insert(row, rid)
	}
	return rid, nil
}

// InsertPrepared stores a row whose record the caller has already
// encoded (rec must equal EncodeRow(row)), moving the encoding cost off
// the table's write lock.  The batch-ingest pipeline encodes rows in its
// parse workers and feeds them here through the single writer.
//
// netmarkvet:mutates
func (t *Table) InsertPrepared(row Row, rec []byte) (RowID, error) {
	if err := t.schema.Validate(row); err != nil {
		return ZeroRowID, err
	}
	if err := t.writable(); err != nil {
		return ZeroRowID, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(rec)
	if err != nil {
		return ZeroRowID, t.noteIfIOFault("insert", err)
	}
	for _, ix := range t.indexes {
		ix.insert(row, rid)
	}
	return rid, nil
}

// UpdateInPlace rewrites the record at rid with a pre-encoded record of
// the same encoded layout whose indexed columns are unchanged — the fast
// path for the XML store's link patches, which touch only fixed-width
// unindexed columns.  It skips the fetch/decode/re-encode and index
// diffing of Update; the caller owns those invariants.
//
// netmarkvet:mutates
func (t *Table) UpdateInPlace(rid RowID, rec []byte) error {
	if err := t.writable(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.noteIfIOFault("update", t.heap.Update(rid, rec))
}

// Fetch returns the row at rid.  The row is decoded directly from the
// latched page — no intermediate record copy — because Decode copies
// every payload anyway.
func (t *Table) Fetch(rid RowID) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var row Row
	err := t.heap.View(rid, func(rec []byte) error {
		var derr error
		row, derr = DecodeRow(rec)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// FetchView invokes fn with the raw record bytes at rid under the table's
// shared lock and the page read latch.  It is the cheapest read path:
// callers with a fixed schema decode straight into stack storage with
// DecodeRowInto, paying zero per-fetch heap allocations inside the
// engine.  fn must not retain rec, block, or call back into the table.
//
// netmarkvet:hotpath
func (t *Table) FetchView(rid RowID, fn func(rec []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.View(rid, fn)
}

// ViewMany invokes fn for each live record among rids, in input order,
// under a single shared-lock acquisition, reusing the page pin across
// consecutive rids on the same page — the batched analogue of FetchView
// for traversal kernels that already hold a sorted rid list.  Deleted
// records are skipped (readers racing a document delete want the
// survivors); any other fetch error, or an error from fn, aborts the
// walk.  fn must not retain rec.
func (t *Table) ViewMany(rids []RowID, fn func(i int, rec []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.ViewMany(rids, fn)
}

// Delete removes the row at rid and its index entries.
//
// netmarkvet:mutates
func (t *Table) Delete(rid RowID) error {
	if err := t.writable(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, err := t.heap.Fetch(rid)
	if err != nil {
		return err
	}
	row, err := DecodeRow(rec)
	if err != nil {
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		return t.noteIfIOFault("delete", err)
	}
	for _, ix := range t.indexes {
		ix.remove(row, rid)
	}
	return nil
}

// Update rewrites the row at rid in place.  The encoded row must not be
// larger than the stored record (link patches in the XML store keep
// fixed-width columns first, so this holds in practice).
//
// netmarkvet:mutates
func (t *Table) Update(rid RowID, row Row) error {
	if err := t.schema.Validate(row); err != nil {
		return err
	}
	if err := t.writable(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	oldRec, err := t.heap.Fetch(rid)
	if err != nil {
		return err
	}
	oldRow, err := DecodeRow(oldRec)
	if err != nil {
		return err
	}
	if err := t.heap.Update(rid, EncodeRow(row)); err != nil {
		return t.noteIfIOFault("update", err)
	}
	for _, ix := range t.indexes {
		if !oldRow[ix.colIdx].Equal(row[ix.colIdx]) {
			ix.remove(oldRow, rid)
			ix.insert(row, rid)
		}
	}
	return nil
}

// Scan iterates all rows in physical order.
func (t *Table) Scan(fn func(rid RowID, row Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var derr error
	err := t.heap.Scan(func(rid RowID, rec []byte) bool {
		row, e := DecodeRow(rec)
		if e != nil {
			derr = e
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// CreateIndex builds a secondary index on the named column.
func (t *Table) CreateIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.buildIndexLocked(column); err != nil {
		return err
	}
	if t.db != nil && t.db.wal != nil {
		t.db.wal.LogCreateIndex(t.name, column)
	}
	return nil
}

// buildIndexLocked creates and populates an index.  Caller holds t.mu.
func (t *Table) buildIndexLocked(column string) error {
	if _, dup := t.indexes[column]; dup {
		return fmt.Errorf("ordbms: index on %s.%s already exists", t.name, column)
	}
	ci := t.schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("ordbms: no column %q in table %s", column, t.name)
	}
	ix := newIndex(column, ci)
	var derr error
	err := t.heap.Scan(func(rid RowID, rec []byte) bool {
		row, e := DecodeRow(rec)
		if e != nil {
			derr = e
			return false
		}
		ix.insert(row, rid)
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	t.indexes[column] = ix
	return nil
}

// Index returns the index on column, or nil.
func (t *Table) Index(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[column]
}

// Lookup uses the index on column for an equality probe, fetching rows.
func (t *Table) Lookup(column string, v Value) ([]RowID, error) {
	ix := t.Index(column)
	if ix == nil {
		return nil, fmt.Errorf("ordbms: no index on %s.%s", t.name, column)
	}
	return ix.Lookup(v), nil
}
