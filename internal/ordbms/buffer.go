package ordbms

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches pages in memory with LRU replacement.  Pages are
// pinned while in use; unpinned dirty pages are flushed on eviction,
// respecting the WAL-ahead rule via the flushGate callback.
type BufferPool struct {
	// mu is deliberately not marked hot — eviction legitimately
	// flushes a dirty page to disk while holding it.
	mu       sync.Mutex
	disk     DiskManager
	capacity int
	frames   map[uint32]*Frame // guarded by mu
	lru      *list.List        // guarded by mu; front = most recently used; holds *Frame

	// flushGate, when set, is invoked with the page LSN before a dirty
	// page is written to disk.  The WAL installs a gate that forces the
	// log out through that LSN first.  Guarded by mu.
	flushGate func(lsn uint64) error

	// Stats
	hits, misses, evictions uint64 // guarded by mu
}

// Frame is a buffer-pool slot holding one page.
type Frame struct {
	PageNo uint32
	Page   *Page
	pins   int
	dirty  bool
	lruEl  *list.Element

	// Latch serialises access to the page contents.
	Latch sync.RWMutex

	// loading is held by the Fetch that faults the page in until its
	// disk read ends; loadErr, set before that, is the read failure
	// every waiter returns.  Frames born resident (NewPage) never wait.
	loading sync.WaitGroup
	loadErr error
}

// NewBufferPool creates a pool caching up to capacity pages.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[uint32]*Frame, capacity),
		lru:      list.New(),
	}
}

// SetFlushGate installs the WAL-ahead gate (see WAL.AttachTo).
func (bp *BufferPool) SetFlushGate(gate func(lsn uint64) error) {
	bp.mu.Lock()
	bp.flushGate = gate
	bp.mu.Unlock()
}

// Stats returns (hits, misses, evictions) counters.
func (bp *BufferPool) Stats() (hits, misses, evictions uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses, bp.evictions
}

// NewPage allocates a fresh page on disk, pins it and returns its frame.
func (bp *BufferPool) NewPage() (*Frame, error) {
	no, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.ensureRoomLocked(); err != nil {
		return nil, err
	}
	f := &Frame{PageNo: no, Page: NewPage(), pins: 1, dirty: true}
	f.lruEl = bp.lru.PushFront(f)
	bp.frames[no] = f
	return f, nil
}

// Fetch pins the given page, reading it from disk if needed.  A
// concurrent Fetch of a page still being read waits for the read, so no
// caller ever sees a frame before its page is filled.
func (bp *BufferPool) Fetch(no uint32) (*Frame, error) {
	bp.mu.Lock()
	if f, ok := bp.frames[no]; ok {
		f.pins++
		bp.lru.MoveToFront(f.lruEl)
		bp.hits++
		bp.mu.Unlock()
		f.loading.Wait()
		if f.loadErr != nil {
			bp.Unpin(f, false)
			return nil, f.loadErr
		}
		return f, nil
	}
	bp.misses++
	if err := bp.ensureRoomLocked(); err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	// netmarkvet:allocok — miss path: the frame and page backing a
	// newly resident page are the point of the fetch
	f := &Frame{PageNo: no, Page: NewPage(), pins: 1}
	f.loading.Add(1)
	f.lruEl = bp.lru.PushFront(f)
	bp.frames[no] = f
	bp.mu.Unlock()

	// Read outside the pool lock; the frame is pinned so it cannot be
	// evicted, and concurrent fetchers of the page wait on loading.
	defer f.loading.Done()
	if err := bp.disk.ReadPage(no, f.Page.Data()); err != nil {
		bp.mu.Lock()
		f.pins--
		delete(bp.frames, no)
		bp.lru.Remove(f.lruEl)
		f.loadErr = err
		bp.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// Unpin releases a pin.  markDirty records that the caller modified the page.
func (bp *BufferPool) Unpin(f *Frame, markDirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if markDirty {
		f.dirty = true
	}
	if f.pins > 0 {
		f.pins--
	}
}

// ensureRoomLocked evicts the least recently used unpinned frame when the
// pool is at capacity.  Caller holds bp.mu.
func (bp *BufferPool) ensureRoomLocked() error {
	for len(bp.frames) >= bp.capacity {
		victim := bp.findVictimLocked()
		if victim == nil {
			return fmt.Errorf("ordbms: buffer pool exhausted (%d pages all pinned)", bp.capacity)
		}
		if victim.dirty {
			if bp.flushGate != nil {
				if err := bp.flushGate(victim.Page.LSN()); err != nil {
					return err
				}
			}
			if err := bp.disk.WritePage(victim.PageNo, victim.Page.Data()); err != nil {
				return err
			}
		}
		delete(bp.frames, victim.PageNo)
		bp.lru.Remove(victim.lruEl)
		bp.evictions++
	}
	return nil
}

func (bp *BufferPool) findVictimLocked() *Frame {
	for el := bp.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*Frame)
		if f.pins == 0 {
			return f
		}
	}
	return nil
}

// FlushAll writes every dirty page to disk (a checkpoint helper).
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	frames := make([]*Frame, 0, len(bp.frames))
	for _, f := range bp.frames {
		frames = append(frames, f)
	}
	gate := bp.flushGate
	bp.mu.Unlock()

	for _, f := range frames {
		f.Latch.RLock()
		if f.dirty {
			if gate != nil {
				if err := gate(f.Page.LSN()); err != nil {
					f.Latch.RUnlock()
					return err
				}
			}
			if err := bp.disk.WritePage(f.PageNo, f.Page.Data()); err != nil {
				f.Latch.RUnlock()
				return err
			}
			f.dirty = false
		}
		f.Latch.RUnlock()
	}
	return bp.disk.Sync()
}
