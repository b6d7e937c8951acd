package ordbms

import (
	"errors"
	"testing"
	"time"
)

// gatedDisk wraps a DiskManager so ReadPage announces itself on started
// and then blocks until release yields the error to return (nil: read
// the page).
type gatedDisk struct {
	DiskManager
	started chan uint32
	release chan error
}

func (d *gatedDisk) ReadPage(no uint32, buf []byte) error {
	d.started <- no
	if err := <-d.release; err != nil {
		return err
	}
	return d.DiskManager.ReadPage(no, buf)
}

// faultInRace starts one Fetch of a page that is not resident, waits
// until its disk read is in flight, and starts a second Fetch of the
// same page.  It returns the pool, its disk, the page number and the
// two Fetch outcomes, delivered once the disk read is released with
// readErr.
func faultInRace(t *testing.T, readErr error) (bp *BufferPool, disk *gatedDisk, no uint32, results [2]error, frames [2]*Frame) {
	t.Helper()
	mem := NewMemDisk()
	no, err := mem.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	page := NewPage()
	if _, err := page.Insert([]byte("resident record")); err != nil {
		t.Fatal(err)
	}
	if err := mem.WritePage(no, page.Data()); err != nil {
		t.Fatal(err)
	}
	disk = &gatedDisk{DiskManager: mem, started: make(chan uint32, 2), release: make(chan error, 2)}
	bp = NewBufferPool(disk, 8)

	type outcome struct {
		f   *Frame
		err error
	}
	first, second := make(chan outcome, 1), make(chan outcome, 1)
	go func() { f, err := bp.Fetch(no); first <- outcome{f, err} }()
	<-disk.started // the miss holds the frame, its read in flight
	go func() { f, err := bp.Fetch(no); second <- outcome{f, err} }()
	select {
	case o := <-second:
		t.Fatalf("second Fetch returned (%v, %v) before the page was read", o.f, o.err)
	case <-time.After(50 * time.Millisecond):
	}
	disk.release <- readErr
	a, b := <-first, <-second
	return bp, disk, no, [2]error{a.err, b.err}, [2]*Frame{a.f, b.f}
}

// A Fetch of a page whose fault-in is still reading must wait for the
// read, not take the resident frame's zeroed page.
func TestFetchWaitsForInFlightRead(t *testing.T) {
	_, _, _, errs, frames := faultInRace(t, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if rec, err := frames[i].Page.Get(0); err != nil || string(rec) != "resident record" {
			t.Fatalf("Fetch %d read slot 0 as (%q, %v), want the record on disk", i, rec, err)
		}
	}
	if frames[0] != frames[1] {
		t.Fatal("the two fetches pinned different frames")
	}
}

// A failed fault-in reports its read error to every waiter and leaves
// the page absent, so the next Fetch retries the read.
func TestFetchReadErrorReachesWaiters(t *testing.T) {
	boom := errors.New("injected read failure")
	bp, disk, no, errs, _ := faultInRace(t, boom)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("Fetch %d: err = %v, want the injected read failure", i, err)
		}
	}
	disk.release <- nil
	f, err := bp.Fetch(no)
	if err != nil {
		t.Fatalf("Fetch after a failed read: %v", err)
	}
	<-disk.started
	if rec, err := f.Page.Get(0); err != nil || string(rec) != "resident record" {
		t.Fatalf("retried Fetch read slot 0 as (%q, %v)", rec, err)
	}
}
