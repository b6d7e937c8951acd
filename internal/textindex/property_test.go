package textindex

// Property tests: the block-compressed posting lists must answer every
// query family exactly like a brute-force reference model, across
// randomized insert/remove/re-insert sequences that exercise block
// sealing, out-of-order tails, tombstoning, compaction, and revival.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refModel is the brute-force reference: the token sequence of every
// live id, queried by scanning.
type refModel struct {
	docs map[uint64][]string
}

func newRefModel() *refModel { return &refModel{docs: make(map[uint64][]string)} }

func (m *refModel) add(id uint64, text string) {
	toks := Tokenize(text)
	terms := make([]string, len(toks))
	for i, tok := range toks {
		terms[i] = tok.Term
	}
	m.docs[id] = append(m.docs[id], terms...)
}

func (m *refModel) remove(id uint64) { delete(m.docs, id) }

func (m *refModel) ids(match func(terms []string) bool) []uint64 {
	var out []uint64
	for id, terms := range m.docs {
		if match(terms) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refModel) lookup(term string) []uint64 {
	return m.ids(func(terms []string) bool {
		for _, t := range terms {
			if t == term {
				return true
			}
		}
		return false
	})
}

func (m *refModel) and(query string) []uint64 {
	toks := Tokenize(query)
	return m.ids(func(terms []string) bool {
		for _, tok := range toks {
			found := false
			for _, t := range terms {
				if t == tok.Term {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
}

func (m *refModel) phrase(query string) []uint64 {
	toks := Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	want := make([]string, len(toks))
	for i, tok := range toks {
		want[i] = tok.Term
	}
	return m.ids(func(terms []string) bool {
	starts:
		for s := 0; s+len(want) <= len(terms); s++ {
			for i, w := range want {
				if terms[s+i] != w {
					continue starts
				}
			}
			return true
		}
		return false
	})
}

// lookupIDs and andIDs drain the streaming iterators for comparison.
func lookupIDs(ix *Index, term string) []uint64 { return ix.LookupIter(term).appendAll(nil) }
func andIDs(ix *Index, query string) []uint64   { return ix.AndIter(query).appendAll(nil) }

// eqIDs compares treating nil and empty as equal (the index returns nil
// for no matches, the model returns nil too, but guard anyway).
func eqIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyCompressedListEquivalence runs randomized mutation
// sequences and cross-checks every query family against the reference
// after each phase.  The id space and vocabulary are sized to force
// multi-block lists, tail overlap (out-of-order ids), tombstone
// compaction, and tombstone revival.
func TestPropertyCompressedListEquivalence(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "alphabet", "gambit", "веста", "第"}
	queries := []string{
		"alpha", "beta", "alphabet", "第", "absent",
		"alpha beta", "beta gamma delta", "alpha absent",
		"alpha beta gamma",
	}
	phrases := []string{"alpha beta", "beta gamma", "gamma alpha beta"}

	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			ix := New()
			model := newRefModel()
			live := make([]uint64, 0, 2048)    // ids currently indexed
			removed := make([]uint64, 0, 1024) // ids removed at least once
			nextID := uint64(1)

			makeText := func() string {
				k := r.Intn(4) + 1
				var sb strings.Builder
				for i := 0; i < k; i++ {
					if i > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(vocab[r.Intn(len(vocab))])
				}
				return sb.String()
			}
			addID := func(id uint64) {
				text := makeText()
				ix.Add(id, text)
				model.add(id, text)
				live = append(live, id)
			}

			check := func(stage string) {
				t.Helper()
				for _, q := range queries {
					// LookupIter normalises to the first token; mirror that.
					if got, want := lookupIDs(ix, q), model.lookup(normTerm(q)); !eqIDs(got, want) {
						t.Fatalf("%s: LookupIter(%q) = %v, want %v", stage, q, got, want)
					}
					if got, want := andIDs(ix, q), model.and(q); !eqIDs(got, want) {
						t.Fatalf("%s: AndIter(%q) = %v, want %v", stage, q, got, want)
					}
				}
				for _, p := range phrases {
					if got, want := ix.Phrase(p), model.phrase(p); !eqIDs(got, want) {
						t.Fatalf("%s: Phrase(%q) = %v, want %v", stage, p, got, want)
					}
				}
				if ix.Docs() != len(model.docs) {
					t.Fatalf("%s: Docs() = %d, want %d", stage, ix.Docs(), len(model.docs))
				}
				for _, w := range vocab {
					if got, want := ix.DF(w), len(model.lookup(w)); got != want {
						t.Fatalf("%s: DF(%q) = %d, want %d", stage, w, got, want)
					}
				}
			}

			const phases, opsPerPhase = 5, 400
			for phase := 0; phase < phases; phase++ {
				for op := 0; op < opsPerPhase; op++ {
					switch p := r.Intn(100); {
					case p < 55: // fresh ascending id — the common RowID pattern
						addID(nextID)
						nextID++
					case p < 65: // fresh out-of-order id — forces tail overlap
						id := uint64(r.Int63n(int64(nextID))) + 1
						if _, ok := model.docs[id]; ok {
							continue
						}
						addID(id)
					case p < 90: // remove a live id — tombstones + compaction
						if len(live) == 0 {
							continue
						}
						i := r.Intn(len(live))
						id := live[i]
						if _, ok := model.docs[id]; !ok {
							live = append(live[:i], live[i+1:]...)
							continue
						}
						ix.Remove(id)
						model.remove(id)
						live = append(live[:i], live[i+1:]...)
						removed = append(removed, id)
					default: // re-insert a previously removed id — revival
						if len(removed) == 0 {
							continue
						}
						i := r.Intn(len(removed))
						id := removed[i]
						if _, ok := model.docs[id]; ok {
							continue
						}
						addID(id)
					}
				}
				check(fmt.Sprintf("phase %d", phase))
			}

			// The sequences above must actually have exercised the block
			// machinery, or the equivalence proves nothing.
			st := ix.Stats()
			if st.Blocks == 0 {
				t.Fatalf("property run never sealed a block: %+v", st)
			}

			// And the whole state must survive a v2 snapshot round trip.
			loaded, _, err := LoadSnapshot(ix.AppendSnapshot(nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if !reflect.DeepEqual(andIDs(loaded, q), andIDs(ix, q)) {
					t.Fatalf("snapshot round trip diverges on %q", q)
				}
			}
		})
	}
}
