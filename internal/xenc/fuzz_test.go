package xenc

import (
	"strings"
	"testing"

	"pathfinder/internal/xmark"
)

// loadSeeds are documents every loader fuzz target starts from: well- and
// ill-formed, with the three inputs the well-formedness constraints of the
// tokenizer reject last (end tags that do not match, a repeated attribute,
// a reference to a surrogate).
var loadSeeds = []string{
	``,
	`<a/>`,
	`<a b="c"><d>text</d><!--comment--></a>`,
	`<site><people><person id="p1"><name>A</name></person></people></site>`,
	`<a xmlns:x="u"><x:b x:c="v"/></a>`,
	`<?xml version="1.0"?><a/>`,
	`<!DOCTYPE a><a/>`,
	`<a>`, `</a>`, `<a></b>`, `<a><b></a></b>`, `text only`,
	`<a b="unterminated`, `<a b=c/>`, `<<a/>`, `<a/><b/>`,
	`<a>&lt;&amp;&#65;</a>`, `<a>&undefined;</a>`,
	"<a>\x00</a>", "\xff\xfe<a/>",
	`<a>` + strings.Repeat("<b>", 40) + strings.Repeat("</b>", 40) + `</a>`,
	`<a><b></c></a>`, `<a x="1" x="2"/>`, `<a>&#xD800;</a>`, `<a b="&#xD800;"/>`,
}

// FuzzLoadDocument shreds arbitrary bytes through the document loader:
// it must either reject the input with an error or produce a fragment
// whose serialization round-trips through a second load — and never
// panic. The loader sits on the trust boundary between user-supplied
// XML and the pre|size|level arrays every axis step indexes blindly.
func FuzzLoadDocument(f *testing.F) {
	for _, s := range loadSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		store := NewStore()
		ref, err := store.LoadDocumentString("fuzz.xml", doc)
		if err != nil {
			return
		}
		if err := store.Frag(ref.Frag).Validate(); err != nil {
			t.Fatalf("loaded fragment is invalid: %v\ninput: %q", err, doc)
		}
		out := store.Serialize(ref)
		// A loaded document must serialize to XML the loader accepts back.
		if _, err := NewStore().LoadDocumentString("fuzz.xml", out); err != nil {
			t.Fatalf("serialization does not round-trip: %v\ninput:  %q\noutput: %q", err, doc, out)
		}
	})
}

// FuzzShredMatchesStdlib loads each input through the tokenizer and
// through shredReference (encoding/xml plus the three well-formedness
// checks): both must reject it, or both must produce the same columns and
// the same pools, surrogate for surrogate.
func FuzzShredMatchesStdlib(f *testing.F) {
	for _, s := range loadSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		xmark.GenerateString(0.002),
		"<a>x\r\ny\rz\r\r\n</a>", "<a b=\"1\r\n2\r3\">\r\n</a>", "\r\n<a/>\r",
		`<a><![CDATA[ <b>&amp; ]]></a>`, `<a><![CDATA[ ]]><![CDATA[]]>x<![CDATA[y]]]>z</a>`, `<a><![CDATA[x]]</a>`,
		`<a><!----><!-- c --><!-- a - b --></a>`, `<a><!-- a -- b --></a>`, `<a><!--->--></a>`, `<!-- top --><a/><!---->`,
		`<?pi?><a><?pi body ?x?></a><?x:y:z?>`, `<?xml version="1.1"?><a/>`, `<? pi?><a/>`,
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version="1.0" encoding='utf-8'?><a/>`,
		`<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`, `<!DOCTYPE a [<!ENTITY e "x">]><a/>`,
		`<!DOCTYPE a [<!-- <> --> <!ELEMENT a (#PCDATA)>]><a/>`, `<!>>`, `<!a '>' "<" <<!-- x --> >><a/>`,
		`<é ü="ö">日本語</é>`, `<a:b c:d="1"/>`, `<a:b:c/>`, `<a x:y:z="1"/>`, `<:a/>`, `<a:/>`, `<1a/>`, `<a·b/>`, `<·a/>`,
		`<a xmlns="u" xmlns:p="v" xmlnsq="w" p:x="1"/>`, `<a xmlns:p="1" xmlns:p="2"/>`,
		`<a v="&lt;&gt;&amp;&apos;&quot;&#10;&#x9;"/>`, `<a v="<"/>`, `<a v='"'/>`, `<a v="x"w="y"/>`, `<a v = "1" />`,
		`<a>&#0;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x10FFFF;&#1114112;</a>`, `<a>&#X41;&#x;&#;</a>`, `<a>&#13;</a>`,
		`<a>&lt</a>`, `<a>&amp;amp;&#38;</a>`, `<a>]]></a>`, `<a>]]&gt;</a>`, "<a>\u00a0\u0085</a>", "<a>&#xA0;</a>",
		"\ufeff<a/>", "<a>\uffff</a>", "<!--\x01--><a/>", "<a>\x0b</a>", `</a >`, `<a></a >`, `<a></a b>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		shredBoth(t, doc)
	})
}
