package xmark

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestGeneratedBytesPinned: the documents are the ones the fmt-based
// generator wrote, byte for byte — every XMark golden and benchmark oracle
// was taken over them — and Generate and GenerateString agree.
func TestGeneratedBytesPinned(t *testing.T) {
	for _, c := range []struct {
		sf   float64
		sum  string
		size int
	}{
		{0.002, "34e64e9c3dbcff328418a6def8185c08bf5910d5742fba55e574c09cbeb80836", 78852},
		{0.01, "340c9ab06c1c5b14903f03c64824b0cde437ef07cef614e13546eb16ef186f41", 365979},
		{0.1, "48198a63062b086fd8558e861f22ef57bc8820c6bd5080817321a8158487450a", 3706870},
	} {
		doc := GenerateString(c.sf)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(doc))); got != c.sum || len(doc) != c.size {
			t.Errorf("SF %v: %d bytes with sha256 %s, want %d with %s", c.sf, len(doc), got, c.size, c.sum)
		}
		var sb strings.Builder
		if err := Generate(&sb, c.sf); err != nil || sb.String() != doc {
			t.Errorf("SF %v: Generate writes %d bytes (%v), GenerateString %d", c.sf, sb.Len(), err, len(doc))
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateString(0.1)
	}
}
