// Package xmark is the workload substrate of the reproduction: a
// deterministic stand-in for the XMark benchmark's xmlgen document
// generator [10] plus the twenty benchmark queries, adapted to the XQuery
// dialect of Table 2. Documents follow the auction-site schema
// (site/regions/categories/people/open_auctions/closed_auctions) with
// entity counts linear in the scale factor, so SF 1 corresponds to the
// original generator's ≈100 MB instance and the SF decades of the paper's
// Table 3 map onto proportionally smaller inputs.
package xmark

import (
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Counts are the entity cardinalities for a scale factor.
type Counts struct {
	Items      int
	People     int
	Open       int
	Closed     int
	Categories int
}

// CountsFor scales the XMark SF-1 cardinalities (21750 items, 25500
// persons, 12000 open and 9750 closed auctions, 1000 categories) with
// floors that keep the 20 queries meaningful on tiny instances.
func CountsFor(sf float64) Counts {
	scale := func(base, floor int) int {
		n := int(float64(base) * sf)
		if n < floor {
			return floor
		}
		return n
	}
	return Counts{
		Items:      scale(21750, 36),
		People:     scale(25500, 60),
		Open:       scale(12000, 24),
		Closed:     scale(9750, 24),
		Categories: scale(1000, 6),
	}
}

// regions lists the six continent elements with their share of the items.
var regions = []struct {
	name  string
	share float64
}{
	{"africa", 0.05},
	{"asia", 0.15},
	{"australia", 0.10},
	{"europe", 0.30},
	{"namerica", 0.30},
	{"samerica", 0.10},
}

// Generate writes an auction document for the given scale factor. The
// output is deterministic in sf.
func Generate(w io.Writer, sf float64) error {
	g := &gen{w: w, r: rand.New(rand.NewSource(int64(sf*1e6) + 42)), c: CountsFor(sf), buf: make([]byte, 0, chunk+4096)}
	g.doc()
	g.flush()
	return g.err
}

// GenerateString is Generate into a string.
func GenerateString(sf float64) string {
	var sb strings.Builder
	sb.Grow(int(sf*bytesPerSF) + chunk)
	_ = Generate(&sb, sf)
	return sb.String()
}

// bytesPerSF is about the size of an SF-1 document; chunk is how much the
// generator assembles before it writes.
const (
	bytesPerSF = 37.3e6
	chunk      = 1 << 16
)

// gen appends the document to buf — numbers with strconv, zero padding by
// hand — and writes it out a chunk at a time. The random draws are made
// in the order the text needs them, which fixes the document for a seed.
type gen struct {
	w   io.Writer
	buf []byte
	r   *rand.Rand
	c   Counts
	err error
}

// s appends literal text, writing a chunk out once one is full.
func (g *gen) s(text string) {
	g.buf = append(g.buf, text...)
	if len(g.buf) >= chunk {
		g.flush()
	}
}

func (g *gen) flush() {
	if g.err == nil {
		_, g.err = g.w.Write(g.buf)
	}
	g.buf = g.buf[:0]
}

// d appends n in decimal.
func (g *gen) d(n int) { g.buf = strconv.AppendInt(g.buf, int64(n), 10) }

// pad appends n (≥ 0) in decimal, zero-padded to width digits (%0*d).
func (g *gen) pad(n, width int) {
	digits := 1
	for v := n; v >= 10; v /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		g.buf = append(g.buf, '0')
	}
	g.d(n)
}

// f2 appends v with two decimals (%.2f).
func (g *gen) f2(v float64) { g.buf = strconv.AppendFloat(g.buf, v, 'f', 2, 64) }

// text appends minWords to maxWords words, space-separated.
func (g *gen) text(minWords, maxWords int) {
	n := minWords + g.r.Intn(maxWords-minWords+1)
	for i := 0; i < n; i++ {
		if i > 0 {
			g.buf = append(g.buf, ' ')
		}
		g.buf = append(g.buf, words[g.r.Intn(len(words))]...)
	}
}

func (g *gen) name() string {
	return firstNames[g.r.Intn(len(firstNames))] + " " + lastNames[g.r.Intn(len(lastNames))]
}

// date appends a MM/DD/YYYY date.
func (g *gen) date() {
	g.pad(1+g.r.Intn(12), 2)
	g.buf = append(g.buf, '/')
	g.pad(1+g.r.Intn(28), 2)
	g.buf = append(g.buf, '/')
	g.pad(1998+g.r.Intn(4), 4)
}

func (g *gen) chance(p float64) bool { return g.r.Float64() < p }

func (g *gen) doc() {
	g.s("<site>\n")
	g.regions()
	g.categories()
	g.catgraph()
	g.people()
	g.openAuctions()
	g.closedAuctions()
	g.s("</site>\n")
}

// catgraph emits the category-similarity edges of the XMark schema
// (roughly one edge per category, like the original generator).
func (g *gen) catgraph() {
	g.s("<catgraph>\n")
	for i := 0; i < g.c.Categories; i++ {
		g.s(`<edge from="category`)
		g.d(g.r.Intn(g.c.Categories))
		g.s(`" to="category`)
		g.d(g.r.Intn(g.c.Categories))
		g.s("\"/>\n")
	}
	g.s("</catgraph>\n")
}

func (g *gen) regions() {
	g.s("<regions>\n")
	next := 0
	for i, reg := range regions {
		count := int(float64(g.c.Items) * reg.share)
		if i == len(regions)-1 {
			count = g.c.Items - next // remainder keeps the total exact
		}
		g.s("<" + reg.name + ">\n")
		for j := 0; j < count; j++ {
			g.item(next)
			next++
		}
		g.s("</" + reg.name + ">\n")
	}
	g.s("</regions>\n")
}

func (g *gen) item(id int) {
	g.s(`<item id="item`)
	g.d(id)
	g.s(`"`)
	if g.chance(0.15) {
		g.s(` featured="yes"`)
	}
	g.s(">\n<location>")
	g.s(countries[g.r.Intn(len(countries))])
	g.s("</location>\n<quantity>")
	g.d(1 + g.r.Intn(10))
	g.s("</quantity>\n<name>")
	g.text(2, 4)
	g.s("</name>\n<payment>Creditcard</payment>\n<description><text>")
	g.text(10, 40)
	g.s("</text></description>\n<shipping>Will ship internationally</shipping>\n")
	nCat := 1 + g.r.Intn(3)
	for k := 0; k < nCat; k++ {
		g.s(`<incategory category="category`)
		g.d(g.r.Intn(g.c.Categories))
		g.s("\"/>\n")
	}
	if g.chance(0.6) {
		g.s("<mailbox>\n")
		for m := g.r.Intn(3); m > 0; m-- {
			g.s("<mail>\n<from>")
			g.s(g.name())
			g.s("</from>\n<to>")
			g.s(g.name())
			g.s("</to>\n<date>")
			g.date()
			g.s("</date>\n<text>")
			g.text(5, 20)
			g.s("</text>\n</mail>\n")
		}
		g.s("</mailbox>\n")
	}
	g.s("</item>\n")
}

func (g *gen) categories() {
	g.s("<categories>\n")
	for i := 0; i < g.c.Categories; i++ {
		g.s(`<category id="category`)
		g.d(i)
		g.s("\">\n<name>")
		g.text(1, 3)
		g.s("</name>\n<description><text>")
		g.text(5, 20)
		g.s("</text></description>\n</category>\n")
	}
	g.s("</categories>\n")
}

func (g *gen) people() {
	g.s("<people>\n")
	for i := 0; i < g.c.People; i++ {
		name := g.name()
		g.s(`<person id="person`)
		g.d(i)
		g.s("\">\n<name>")
		g.s(name)
		g.s("</name>\n<emailaddress>mailto:")
		g.s(strings.ReplaceAll(strings.ToLower(name), " ", "."))
		g.s("@example.com</emailaddress>\n")
		if g.chance(0.4) {
			g.s("<phone>+")
			g.d(1 + g.r.Intn(48))
			g.s(" (")
			g.d(100 + g.r.Intn(900))
			g.s(") ")
			g.d(1000000 + g.r.Intn(9000000))
			g.s("</phone>\n")
		}
		if g.chance(0.6) {
			g.s("<address>\n<street>")
			g.d(1 + g.r.Intn(99))
			g.s(" ")
			g.s(words[g.r.Intn(len(words))])
			g.s(" St</street>\n<city>")
			g.s(cities[g.r.Intn(len(cities))])
			g.s("</city>\n<country>")
			g.s(countries[g.r.Intn(len(countries))])
			g.s("</country>\n<zipcode>")
			g.d(10000 + g.r.Intn(89999))
			g.s("</zipcode>\n</address>\n")
		}
		if g.chance(0.5) {
			g.s("<homepage>http://www.example.com/~person")
			g.d(i)
			g.s("</homepage>\n")
		}
		if g.chance(0.4) {
			g.s("<creditcard>")
			for k := 0; k < 4; k++ {
				if k > 0 {
					g.s(" ")
				}
				g.d(1000 + g.r.Intn(9000))
			}
			g.s("</creditcard>\n")
		}
		if g.chance(0.8) {
			g.profile()
		}
		if g.chance(0.3) {
			g.s("<watches>\n")
			for wn := 1 + g.r.Intn(2); wn > 0; wn-- {
				g.s(`<watch open_auction="open_auction`)
				g.d(g.r.Intn(g.c.Open))
				g.s("\"/>\n")
			}
			g.s("</watches>\n")
		}
		g.s("</person>\n")
	}
	g.s("</people>\n")
}

func (g *gen) profile() {
	if g.chance(0.85) {
		income := 9876.50 + g.r.Float64()*g.r.Float64()*140000
		g.s(`<profile income="`)
		g.f2(income)
		g.s("\">\n")
	} else {
		g.s("<profile>\n")
	}
	for in := g.r.Intn(4); in > 0; in-- {
		g.s(`<interest category="category`)
		g.d(g.r.Intn(g.c.Categories))
		g.s("\"/>\n")
	}
	if g.chance(0.4) {
		g.s("<education>Graduate School</education>\n")
	}
	if g.chance(0.5) {
		g.s("<gender>" + pick(g.r, "male", "female") + "</gender>\n")
	}
	g.s("<business>" + pick(g.r, "Yes", "No") + "</business>\n")
	if g.chance(0.3) {
		g.s("<age>")
		g.d(18 + g.r.Intn(60))
		g.s("</age>\n")
	}
	g.s("</profile>\n")
}

func (g *gen) openAuctions() {
	g.s("<open_auctions>\n")
	for i := 0; i < g.c.Open; i++ {
		g.s(`<open_auction id="open_auction`)
		g.d(i)
		g.s("\">\n<initial>")
		initial := 1.5 + g.r.Float64()*298
		g.f2(initial)
		g.s("</initial>\n")
		if g.chance(0.4) {
			g.s("<reserve>")
			g.f2(initial * (1.2 + g.r.Float64()))
			g.s("</reserve>\n")
		}
		current := initial
		for bn := g.r.Intn(6); bn > 0; bn-- {
			inc := 1.5 * float64(1+g.r.Intn(8))
			current += inc
			g.s("<bidder>\n<date>")
			g.date()
			g.s("</date>\n<time>")
			g.pad(g.r.Intn(24), 2)
			g.s(":")
			g.pad(g.r.Intn(60), 2)
			g.s(":")
			g.pad(g.r.Intn(60), 2)
			g.s("</time>\n<personref person=\"person")
			g.d(g.r.Intn(g.c.People))
			g.s("\"/>\n<increase>")
			g.f2(inc)
			g.s("</increase>\n</bidder>\n")
		}
		g.s("<current>")
		g.f2(current)
		g.s("</current>\n")
		if g.chance(0.3) {
			g.s("<privacy>Yes</privacy>\n")
		}
		g.s(`<itemref item="item`)
		g.d(g.r.Intn(g.c.Items))
		g.s("\"/>\n<seller person=\"person")
		g.d(g.r.Intn(g.c.People))
		g.s("\"/>\n<annotation>\n<author person=\"person")
		g.d(g.r.Intn(g.c.People))
		g.s("\"/>\n<description><text>")
		g.text(5, 25)
		g.s("</text></description>\n</annotation>\n<quantity>")
		g.d(1 + g.r.Intn(5))
		g.s("</quantity>\n<type>" + pick(g.r, "Regular", "Featured") + "</type>\n<interval><start>")
		g.date()
		g.s("</start><end>")
		g.date()
		g.s("</end></interval>\n</open_auction>\n")
	}
	g.s("</open_auctions>\n")
}

func (g *gen) closedAuctions() {
	g.s("<closed_auctions>\n")
	for i := 0; i < g.c.Closed; i++ {
		g.s("<closed_auction>\n<seller person=\"person")
		g.d(g.r.Intn(g.c.People))
		g.s("\"/>\n<buyer person=\"person")
		g.d(g.r.Intn(g.c.People))
		g.s("\"/>\n<itemref item=\"item")
		g.d(g.r.Intn(g.c.Items))
		g.s("\"/>\n<price>")
		g.f2(5 + g.r.Float64()*295)
		g.s("</price>\n<date>")
		g.date()
		g.s("</date>\n<quantity>")
		g.d(1 + g.r.Intn(5))
		g.s("</quantity>\n<type>" + pick(g.r, "Regular", "Featured") + "</type>\n<annotation>\n<author person=\"person")
		g.d(g.r.Intn(g.c.People))
		g.s("\"/>\n")
		if g.chance(0.12) {
			// The deep prose structure XMark Q15/Q16 navigate.
			g.s("<description><parlist><listitem><parlist><listitem><text><emph><keyword>")
			g.s(words[g.r.Intn(len(words))])
			g.s("</keyword></emph> ")
			g.text(3, 10)
			g.s("</text></listitem></parlist></listitem></parlist></description>\n")
		} else {
			g.s("<description><text>")
			g.text(5, 25)
			g.s("</text></description>\n")
		}
		g.s("</annotation>\n</closed_auction>\n")
	}
	g.s("</closed_auctions>\n")
}

func pick(r *rand.Rand, a, b string) string {
	if r.Intn(2) == 0 {
		return a
	}
	return b
}
