package xenc

import (
	"encoding/xml"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pathfinder/internal/xmark"
)

// shredBoth loads doc through the tokenizer and through shredReference,
// each into a fresh store, and fails t unless both reject it or both
// produce identical columns and pools. It reports whether doc was accepted.
func shredBoth(t testing.TB, doc string) bool {
	t.Helper()
	want := NewStore()
	ref, werr := shredReference(want, "d.xml", doc)
	got := NewStore()
	f, gerr := got.shred("d.xml", doc)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("reference error %v, tokenizer error %v\ninput: %.300q", werr, gerr, doc)
	}
	if werr != nil {
		return false
	}
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"Size", f.Size, ref.Size}, {"Level", f.Level, ref.Level}, {"Prop", f.Prop, ref.Prop},
		{"Parent", f.Parent, ref.Parent}, {"AttrOwner", f.AttrOwner, ref.AttrOwner},
		{"AttrName", f.AttrName, ref.AttrName}, {"AttrVal", f.AttrVal, ref.AttrVal},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s column differs\n got  %v\n want %v\ninput: %.300q", c.name, head(c.got), head(c.want), doc)
		}
	}
	if !slices.Equal(f.Kind, ref.Kind) {
		t.Fatalf("Kind column differs\n got  %v\n want %v\ninput: %.300q", head(f.Kind), head(ref.Kind), doc)
	}
	gp, wp := got.Parts().Pools, want.Parts().Pools
	for i, name := range []string{"tags", "attribute names", "texts", "attribute values"} {
		if !slices.Equal(gp[i], wp[i]) {
			t.Fatalf("%s pool differs\n got  %.300q\n want %.300q\ninput: %.300q", name, gp[i], wp[i], doc)
		}
	}
	return true
}

func head[T any](s []T) []T { return s[:min(len(s), 40)] }

// XMark documents shred identically through the tokenizer and the
// reference: every column, every pool, every surrogate.
func TestShredMatchesReferenceOnXMark(t *testing.T) {
	for _, sf := range []float64{0.01, 0.1} {
		if sf > 0.01 && testing.Short() {
			continue
		}
		if !shredBoth(t, xmark.GenerateString(sf)) {
			t.Fatalf("SF %g: XMark document rejected", sf)
		}
	}
}

// A freshly loaded document keeps no column slack.
func TestShredColumnsAreExact(t *testing.T) {
	for _, doc := range []string{tinyDoc, xmark.GenerateString(0.01), `<a>x<b/>y<b/>z</a>`, ``} {
		s := NewStore()
		ref, err := s.LoadDocumentString("d.xml", doc)
		if err != nil {
			t.Fatal(err)
		}
		f := s.Frag(ref.Frag)
		for _, c := range []struct {
			name     string
			len, cap int
		}{
			{"Size", len(f.Size), cap(f.Size)}, {"Level", len(f.Level), cap(f.Level)},
			{"Kind", len(f.Kind), cap(f.Kind)}, {"Prop", len(f.Prop), cap(f.Prop)},
			{"Parent", len(f.Parent), cap(f.Parent)}, {"AttrOwner", len(f.AttrOwner), cap(f.AttrOwner)},
			{"AttrName", len(f.AttrName), cap(f.AttrName)}, {"AttrVal", len(f.AttrVal), cap(f.AttrVal)},
			{"attrOfs", len(f.attrOfs), cap(f.attrOfs)},
		} {
			if c.len != c.cap {
				t.Errorf("%.20q: %s has len %d, cap %d", doc, c.name, c.len, c.cap)
			}
		}
	}
}

// Loading an XMark document allocates a bounded number of times per node:
// new strings for the pools and the columns, nothing per token.
func TestShredAllocsPerNode(t *testing.T) {
	doc := xmark.GenerateString(0.01)
	var nodes int
	allocs := testing.AllocsPerRun(5, func() {
		s := NewStore()
		ref, err := s.LoadDocumentString("d.xml", doc)
		if err != nil {
			t.Fatal(err)
		}
		nodes = s.Frag(ref.Frag).NodeCount()
	})
	if per := allocs / float64(nodes); per > 0.25 {
		t.Errorf("%.0f allocations for %d nodes: %.3f per node, want at most 0.25", allocs, nodes, per)
	}
}

// The name tables agree with encoding/xml on every character of the BMP,
// as the first character of a name and after it.
func TestNameTablesMatchStdlib(t *testing.T) {
	stdlib := func(doc string) bool {
		d := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := d.RawToken(); err != nil {
				return err.Error() == "EOF"
			}
		}
	}
	for r := rune(0); r <= 0xFFFF; r++ {
		// Markup characters end a name or start something other than a
		// tag, so the probes below say nothing about them.
		if r >= 0xD800 && r <= 0xDFFF || strings.ContainsRune(" \t\r\n>!?", r) {
			continue
		}
		c := string(r)
		if first := isName(c); first != stdlib("<"+c+"/>") {
			t.Fatalf("%U as a first character: tokenizer %v", r, first)
		}
		if later := isName("a" + c); later != stdlib("<a"+c+"/>") {
			t.Fatalf("%U after the first character: tokenizer %v", r, later)
		}
	}
	for _, r := range []rune{0x10000, 0x1D11E, 0x10FFFF} {
		if isName(string(r)) || isName("a"+string(r)) {
			t.Errorf("%U accepted in a name", r)
		}
	}
}

// BenchmarkShred loads XMark documents; -benchmem and the MB/s column give
// the shredder's throughput and allocation per document.
func BenchmarkShred(b *testing.B) {
	for _, sf := range []float64{0.01, 0.1} {
		doc := xmark.GenerateString(sf)
		b.Run(fmt.Sprintf("sf=%g", sf), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewStore().LoadDocumentString("d.xml", doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
