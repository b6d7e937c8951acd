package xmlstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"netmark/internal/docform"
	"netmark/internal/sgml"
)

// buildRandomTree turns a byte string into a deterministic document tree
// (same construction as the sgml round-trip property test).
func buildRandomTree(shape []byte) *sgml.Node {
	names := []string{"sec", "para", "item", "note", "detail"}
	texts := []string{"alpha beta", "x < y", "gamma & delta", "plain", "42"}
	root := sgml.NewElement("document")
	cur := root
	for _, b := range shape {
		switch b % 4 {
		case 0:
			el := sgml.NewElement(names[int(b/4)%len(names)])
			cur.AppendChild(el)
			cur = el
		case 1:
			cur.AppendChild(sgml.NewText(texts[int(b/4)%len(texts)]))
		case 2:
			if cur != root && cur.Parent != nil {
				cur = cur.Parent
			}
		case 3:
			el := sgml.NewElement(names[int(b/4)%len(names)])
			el.SetAttr("k", texts[int(b/4)%len(texts)])
			cur.AppendChild(el)
		}
	}
	if root.FirstChild == nil {
		root.AppendChild(sgml.NewText("empty"))
	}
	return root
}

// canonical produces a text-merge-invariant structural fingerprint.
func canonicalTree(n *sgml.Node) string {
	var sb strings.Builder
	var walk func(x *sgml.Node)
	walk = func(x *sgml.Node) {
		switch x.Kind {
		case sgml.ElementNode:
			sb.WriteString("<" + x.Name)
			for _, a := range x.Attrs {
				sb.WriteString(" " + a.Name + "=" + a.Value)
			}
			sb.WriteString(">")
			var txt strings.Builder
			flush := func() {
				if strings.TrimSpace(txt.String()) != "" {
					sb.WriteString("[" + txt.String() + "]")
				}
				txt.Reset()
			}
			for c := x.FirstChild; c != nil; c = c.NextSibling {
				if c.Kind == sgml.TextNode {
					txt.WriteString(c.Data)
					continue
				}
				flush()
				walk(c)
			}
			flush()
			sb.WriteString("</" + x.Name + ">")
		case sgml.TextNode:
			sb.WriteString("[" + x.Data + "]")
		}
	}
	walk(n)
	return sb.String()
}

// Property: any tree survives store + reconstruct structurally intact.
func TestQuickStoreReconstructRoundTrip(t *testing.T) {
	s := memStore(t)
	i := 0
	f := func(shape []byte) bool {
		i++
		tree := buildRandomTree(shape)
		want := canonicalTree(tree)
		id, err := s.StoreDocument(docform.Meta{
			FileName: fmt.Sprintf("prop-%d.xml", i), Format: "xml",
		}, tree, sgml.XMLConfig())
		if err != nil {
			t.Logf("store: %v", err)
			return false
		}
		got, err := s.Reconstruct(id)
		if err != nil {
			t.Logf("reconstruct: %v", err)
			return false
		}
		return canonicalTree(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every TEXT node's content is findable through content search
// (index completeness).
func TestQuickContentIndexCompleteness(t *testing.T) {
	s := memStore(t)
	n := 0
	f := func(words []string) bool {
		n++
		// Build a document whose body is the given words plus a unique
		// marker, then verify the marker always hits.
		marker := fmt.Sprintf("uniquemarker%d", n)
		body := marker
		for _, w := range words {
			clean := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return -1
			}, strings.ToLower(w))
			if clean != "" {
				body += " " + clean
			}
		}
		src := `<html><body><h1>Sect</h1><p>` + body + `</p></body></html>`
		if _, err := s.StoreRaw(fmt.Sprintf("c%d.html", n), []byte(src)); err != nil {
			return false
		}
		secs, err := s.ContentSearchN(marker, 0)
		if err != nil || len(secs) != 1 {
			return false
		}
		return strings.Contains(secs[0].Content, marker)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestAndSearch hammers the store with parallel writers
// and readers; the store must stay consistent throughout.
func TestConcurrentIngestAndSearch(t *testing.T) {
	s := memStore(t)
	// Seed so searches have hits from the start.
	ingest(t, s, "seed.html", `<html><body><h1>Common</h1><p>seed shared term</p></body></html>`)

	const writers, readers, perWriter = 4, 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src := fmt.Sprintf(`<html><body><h1>Common</h1><p>writer %d doc %d shared</p></body></html>`, w, i)
				if _, err := s.StoreRaw(fmt.Sprintf("w%d-%d.html", w, i), []byte(src)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.ContextSearch("Common"); err != nil {
					errs <- err
					return
				}
				if _, err := s.ContentSearchN("shared", 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final state: all documents present and searchable.
	secs, err := s.ContextSearch("Common")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + writers*perWriter
	if len(secs) != want {
		t.Fatalf("sections = %d, want %d", len(secs), want)
	}
	if s.NumDocuments() != int64(want) {
		t.Fatalf("docs = %d", s.NumDocuments())
	}
}

// TestDeleteDuringSearch interleaves deletions with reads.
func TestDeleteDuringSearch(t *testing.T) {
	s := memStore(t)
	var ids []uint64
	for i := 0; i < 40; i++ {
		id := ingest(t, s, fmt.Sprintf("d%d.html", i),
			`<html><body><h1>Volatile</h1><p>spinning content</p></body></html>`)
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range ids[:20] {
			if err := s.DeleteDocument(id); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := s.ContextSearch("Volatile"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	secs, err := s.ContextSearch("Volatile")
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 20 {
		t.Fatalf("sections = %d, want 20", len(secs))
	}
}
