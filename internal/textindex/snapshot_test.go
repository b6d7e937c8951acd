package textindex

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// buildIndex fills an index with a small synthetic corpus, including a
// multi-call id (positions restart per call) and removed ids.
func buildIndex() *Index {
	ix := New()
	docs := []string{
		"the liquid oxygen turbopump showed cryogenic stress fractures",
		"budget request for the cryogenic test stand",
		"turbine blade review: cryogenic turbopump redesign",
		"the quick brown fox jumps over the lazy dog",
		"liquid hydrogen feed line pressure anomaly",
	}
	for i, d := range docs {
		ix.Add(uint64(1000+i*7), d)
	}
	ix.Add(1000, "appendix: turbopump cavitation margins") // second Add, same id
	ix.Remove(1021)                                        // fox doc vanishes
	return ix
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix := buildIndex()
	buf := ix.AppendSnapshot([]byte("prefix"))
	if !bytes.HasPrefix(buf, []byte("prefix")) {
		t.Fatal("AppendSnapshot must extend the given buffer")
	}
	tail := []byte("trailing-bytes")
	got, n, err := LoadSnapshot(append(buf[len("prefix"):], tail...))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-len("prefix") {
		t.Fatalf("consumed %d bytes, want %d (must stop before trailing data)", n, len(buf)-len("prefix"))
	}

	if got.Docs() != ix.Docs() || got.Terms() != ix.Terms() {
		t.Fatalf("docs/terms = %d/%d, want %d/%d", got.Docs(), got.Terms(), ix.Docs(), ix.Terms())
	}
	for _, q := range []string{"cryogenic", "turbopump", "liquid", "fox", "absent"} {
		if !reflect.DeepEqual(lookupIDs(got, q), lookupIDs(ix, q)) {
			t.Fatalf("Lookup(%q) diverges: %v vs %v", q, lookupIDs(got, q), lookupIDs(ix, q))
		}
		if got.DF(q) != ix.DF(q) {
			t.Fatalf("DF(%q) diverges", q)
		}
	}
	for _, q := range []string{"cryogenic turbopump", "liquid oxygen", "budget request"} {
		if !reflect.DeepEqual(andIDs(got, q), andIDs(ix, q)) {
			t.Fatalf("And(%q) diverges", q)
		}
		if !reflect.DeepEqual(got.Phrase(q), ix.Phrase(q)) {
			t.Fatalf("Phrase(%q) diverges: %v vs %v", q, got.Phrase(q), ix.Phrase(q))
		}
		if got.QueryGen(q) != ix.QueryGen(q) {
			t.Fatalf("QueryGen(%q) diverges (per-term gens must survive the round trip)", q)
		}
	}

	// The loaded index must keep evolving identically: same mutation on
	// both sides yields the same lookups and a working Remove (byID was
	// rebuilt from the posting lists).
	ix.Add(5000, "cryogenic margins")
	got.Add(5000, "cryogenic margins")
	if !reflect.DeepEqual(lookupIDs(got, "cryogenic"), lookupIDs(ix, "cryogenic")) {
		t.Fatal("post-load Add diverges")
	}
	ix.Remove(1000)
	got.Remove(1000)
	if !reflect.DeepEqual(lookupIDs(got, "turbopump"), lookupIDs(ix, "turbopump")) {
		t.Fatal("post-load Remove diverges")
	}
	if got.Docs() != ix.Docs() {
		t.Fatalf("post-mutation docs = %d, want %d", got.Docs(), ix.Docs())
	}
}

func TestSnapshotTruncated(t *testing.T) {
	ix := buildIndex()
	buf := ix.AppendSnapshot(nil)
	for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if _, _, err := LoadSnapshot(buf[:cut]); err == nil && cut < len(buf) {
			// A short prefix can only decode cleanly if it happens to end
			// exactly on a record boundary covering the whole term count —
			// impossible for a strict prefix of a valid snapshot.
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	buf := New().AppendSnapshot(nil)
	got, n, err := LoadSnapshot(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("empty round trip: %v (n=%d)", err, n)
	}
	if got.Docs() != 0 || got.Terms() != 0 {
		t.Fatal("empty index not empty after round trip")
	}
	if lookupIDs(got, "anything") != nil {
		t.Fatal("lookup on empty loaded index")
	}
}

// TestSnapshotCorruptBlocksError: mangled v2 payloads must surface as
// decode errors (the store falls back to its scan rebuild), never as
// panics — the file-level CRC upstream does not protect against a
// writer bug producing internally inconsistent blocks.
func TestSnapshotCorruptBlocksError(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 400; id++ {
		ix.Add(id, "alpha beta")
	}
	if ix.Stats().Blocks == 0 {
		t.Fatal("setup: no sealed blocks")
	}
	buf := ix.AppendSnapshot(nil)
	for cut := 0; cut < len(buf); cut += 7 {
		mangled := append([]byte(nil), buf...)
		mangled[cut] ^= 0x55
		got, _, err := LoadSnapshot(mangled) // must not panic
		if err != nil {
			continue
		}
		// A flip that decodes cleanly (e.g. inside a position value) must
		// still yield a structurally sound index.
		if got.Docs() < 0 || got.Terms() < 0 {
			t.Fatalf("corrupt load at byte %d produced broken index", cut)
		}
		lookupIDs(got, "alpha")
		andIDs(got, "alpha beta")
	}
	// Truncations through the block region must error, not panic.
	for cut := 1; cut < len(buf); cut += 13 {
		if _, _, err := LoadSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}

	// A block-length varint >= 2^63 wraps negative as an int: the bounds
	// check must compare in uint64 and reject it, not slice-panic.
	crafted := binary.AppendUvarint(nil, 0) // genCounter
	crafted = binary.AppendUvarint(crafted, 1)
	crafted = binary.AppendUvarint(crafted, 1) // len("a")
	crafted = append(crafted, 'a')
	crafted = binary.AppendUvarint(crafted, 1)     // gen
	crafted = binary.AppendUvarint(crafted, 1)     // nblocks
	crafted = binary.AppendUvarint(crafted, 1)     // n
	crafted = binary.AppendUvarint(crafted, 1)     // maxID
	crafted = binary.AppendUvarint(crafted, 1<<63) // dlen: wraps int negative
	if _, _, err := LoadSnapshot(crafted); err == nil {
		t.Fatal("2^63 block length decoded cleanly")
	}
}
