package xenc

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"pathfinder/internal/bat"
)

// Store holds every fragment known to a query session: loaded documents
// plus fragments produced by node constructors. String properties are
// interned in store-wide pools so surrogates are comparable across
// fragments.
//
// A Store is safe for concurrent use: fragments are immutable once
// registered, the fragment registry is an append-only array read without
// a lock (Frag is called once per node by every consumer of node refs),
// registration and the document table are guarded by mu, and the pools
// follow the same split. Constructor operators running on parallel
// scheduler workers therefore append fragments while other workers
// resolve nodes.
//
// A store is either a base store — documents, and whatever is
// constructed by evaluations bound to it directly — or a scratch view
// over one (Scratch): the store a single request evaluates against, whose
// constructed fragments and interned strings live only as long as the
// view.
type Store struct {
	// base is the store a scratch view reads through to; nil on a base
	// store. A view's own registry and pools hold only private content,
	// numbered from PrivateBase.
	base *Store

	mu    sync.RWMutex          // guards docs; serializes frags.push
	frags appendOnly[*Fragment] // fragment id → fragment
	docs  map[string]int32

	tags      *pool // element tag names
	attrNames *pool // attribute names
	texts     *pool // text node content (duplicate-free, per §3.1)
	attrVals  *pool // attribute values (duplicate-free)
}

// PrivateBase is the first fragment id and the first pool surrogate of a
// scratch view's private content. A base store cannot reach it (2^30
// fragments, or strings in one pool), so a base that grows while a view
// is alive — a document loaded mid-request, a collection PUT — never
// collides with what the view constructed, and constructed fragments
// still sort after every loaded document (RefBefore orders by id).
const PrivateBase int32 = 1 << 30

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		docs:      make(map[string]int32),
		tags:      newPool(),
		attrNames: newPool(),
		texts:     newPool(),
		attrVals:  newPool(),
	}
}

// scratchStore is a view and its four private pool tails, allocated
// together: a request that constructs nothing pays this one allocation,
// and the registry array, the pool arrays and their lookup maps appear
// with the first fragment or string the request adds.
type scratchStore struct {
	Store
	pools [4]pool
}

// Scratch returns a request-scoped view of s. Reads of everything s holds
// go through to s; fragments the view's constructors finish and strings
// they intern land in private tails numbered from PrivateBase, which are
// dropped with the view. s itself never grows through it: document loads
// and replacements delegate to s, and the persistence entry points
// (WriteSnapshot, Parts) write s's content only.
//
// Within the view one string has one surrogate per pool as seen by every
// node the view reaches: interning consults s first and keeps a string
// private only when s does not have it. The one exception is a string s
// interns after the view did (a document the request loads brings a name
// the request has already constructed); name tests then match both
// surrogates (TagIDs, AttrNameIDs).
//
// Scratch of a view panics: a view layers over a base store only.
func (s *Store) Scratch() *Store {
	if s.base != nil {
		panic("xenc: Scratch of a scratch view")
	}
	v := &scratchStore{}
	for i, bp := range [4]*pool{s.tags, s.attrNames, s.texts, s.attrVals} {
		v.pools[i].base = bp
	}
	v.Store = Store{base: s, tags: &v.pools[0], attrNames: &v.pools[1], texts: &v.pools[2], attrVals: &v.pools[3]}
	return &v.Store
}

// Frag returns the fragment with the given id.
func (s *Store) Frag(id int32) *Fragment {
	if s.base != nil {
		if id < PrivateBase {
			return s.base.frags.at(id)
		}
		id -= PrivateBase
	}
	return s.frags.at(id)
}

// FragCount returns the number of fragments the store reaches: on a view,
// the base's plus its own.
func (s *Store) FragCount() int {
	if s.base != nil {
		return s.base.FragCount() + s.frags.len()
	}
	return s.frags.len()
}

// addFrag registers a fragment and returns its id. The fragment's columns
// are complete before the push publishes it.
func (s *Store) addFrag(f *Fragment) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.frags.push(f)
	if s.base != nil {
		id += PrivateBase
	}
	return id
}

// registerDoc registers a loaded document fragment under its URI,
// atomically with the duplicate check.
func (s *Store) registerDoc(uri string, f *Fragment) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[uri]; ok {
		return 0, fmt.Errorf("document %q already loaded", uri)
	}
	id := s.frags.push(f)
	s.docs[uri] = id
	return id, nil
}

// Doc returns the document node of a previously loaded document.
func (s *Store) Doc(uri string) (bat.NodeRef, error) {
	if s.base != nil {
		return s.base.Doc(uri)
	}
	s.mu.RLock()
	id, ok := s.docs[uri]
	s.mu.RUnlock()
	if !ok {
		return bat.NodeRef{}, fmt.Errorf("fn:doc: document %q not loaded", uri)
	}
	return bat.NodeRef{Frag: id, Pre: 0}, nil
}

// DocURIs lists loaded documents, for the demo shell.
func (s *Store) DocURIs() []string {
	if s.base != nil {
		return s.base.DocURIs()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for u := range s.docs {
		out = append(out, u)
	}
	return out
}

// DocsInOrder lists loaded documents in load order (ascending fragment
// id) together with their document-node refs — the shard manifest order
// fn:collection expands a multi-document collection in.
func (s *Store) DocsInOrder() []DocEntry {
	if s.base != nil {
		return s.base.DocsInOrder()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DocEntry, 0, len(s.docs))
	for u, id := range s.docs {
		out = append(out, DocEntry{URI: u, Root: bat.NodeRef{Frag: id, Pre: 0}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root.Frag < out[j].Root.Frag })
	return out
}

// DocEntry is one loaded document: its URI and its document node.
type DocEntry struct {
	URI  string
	Root bat.NodeRef
}

// ReplaceDocument rebinds uri to a freshly shredded copy of the document,
// whether or not the name is already taken — the explicit-replace
// counterpart of LoadDocument's duplicate error. The old fragment stays in
// the store (live node refs keep resolving) but is no longer reachable
// through the document registry.
func (s *Store) ReplaceDocument(uri string, r io.Reader) (bat.NodeRef, error) {
	doc, err := readAll(r)
	if err != nil {
		return bat.NodeRef{}, fmt.Errorf("parse %q: %w", uri, err)
	}
	return s.ReplaceDocumentString(uri, doc)
}

// Surrogate lookups used by the compiler to turn name tests into integer
// comparisons. A return of -1 means "never matches".

// TagID returns the surrogate of an element tag name, -1 if unknown.
func (s *Store) TagID(tag string) int32 { return s.tags.Lookup(tag) }

// AttrNameID returns the surrogate of an attribute name, -1 if unknown.
func (s *Store) AttrNameID(name string) int32 { return s.attrNames.Lookup(name) }

// TagIDs returns every surrogate an element named tag carries in the
// store: TagID's, and the second one a scratch view holds when it
// interned the name before its base did (see Scratch) — TagID's again
// otherwise.
func (s *Store) TagIDs(tag string) (id, alias int32) { return s.tags.ids(tag) }

// AttrNameIDs is TagIDs for attribute names.
func (s *Store) AttrNameIDs(name string) (id, alias int32) { return s.attrNames.ids(name) }

// TagName resolves a tag surrogate.
func (s *Store) TagName(id int32) string { return s.tags.Get(id) }

// AttrNameOf resolves an attribute-name surrogate.
func (s *Store) AttrNameOf(id int32) string { return s.attrNames.Get(id) }

// Text resolves a text surrogate.
func (s *Store) Text(id int32) string { return s.texts.Get(id) }

// AttrVal resolves an attribute-value surrogate.
func (s *Store) AttrVal(id int32) string { return s.attrVals.Get(id) }

// Node accessors -------------------------------------------------------------

// KindOf returns the kind of the referenced node.
func (s *Store) KindOf(n bat.NodeRef) NodeKind { return s.Frag(n.Frag).KindOf(n.Pre) }

// NameOf returns the node's name: tag for elements, attribute name for
// attribute nodes, "" otherwise.
func (s *Store) NameOf(n bat.NodeRef) string {
	f := s.Frag(n.Frag)
	if n.Pre >= AttrBase {
		return s.attrNames.Get(f.AttrName[n.Pre-AttrBase])
	}
	if f.Kind[n.Pre] == KindElem {
		return s.tags.Get(f.Prop[n.Pre])
	}
	return ""
}

// Parent returns the parent node of n and whether one exists. The parent
// of an attribute node is its owner element.
func (s *Store) Parent(n bat.NodeRef) (bat.NodeRef, bool) {
	f := s.Frag(n.Frag)
	if n.Pre >= AttrBase {
		return bat.NodeRef{Frag: n.Frag, Pre: f.AttrOwner[n.Pre-AttrBase]}, true
	}
	p := f.Parent[n.Pre]
	if p < 0 {
		return bat.NodeRef{}, false
	}
	return bat.NodeRef{Frag: n.Frag, Pre: p}, true
}

// Root returns the root of n's tree (fn:root semantics).
func (s *Store) Root(n bat.NodeRef) bat.NodeRef {
	f := s.Frag(n.Frag)
	pre := n.Pre
	if pre >= AttrBase {
		pre = f.AttrOwner[pre-AttrBase]
	}
	return bat.NodeRef{Frag: n.Frag, Pre: f.RootOf(pre)}
}

// StringValue computes the XPath string value: concatenated descendant
// text for documents and elements, content for text nodes, value for
// attributes.
func (s *Store) StringValue(n bat.NodeRef) string {
	f := s.Frag(n.Frag)
	if n.Pre >= AttrBase {
		return s.attrVals.Get(f.AttrVal[n.Pre-AttrBase])
	}
	switch f.Kind[n.Pre] {
	case KindText, KindComment:
		return s.texts.Get(f.Prop[n.Pre])
	case KindElem, KindDoc:
		var sb strings.Builder
		end := n.Pre + f.Size[n.Pre]
		for p := n.Pre + 1; p <= end; p++ {
			if f.Kind[p] == KindText {
				sb.WriteString(s.texts.Get(f.Prop[p]))
			}
		}
		return sb.String()
	}
	return ""
}

// Atomize returns the typed value of a node as an item: an untyped atomic
// carrying the string value, per the XQuery data model for untyped trees.
func (s *Store) Atomize(n bat.NodeRef) bat.Item {
	return bat.Untyped(s.StringValue(n))
}

// AttrValueOf returns the value of the named attribute on element n, with
// ok=false when the attribute is absent.
func (s *Store) AttrValueOf(n bat.NodeRef, name string) (string, bool) {
	f := s.Frag(n.Frag)
	if n.Pre >= AttrBase || f.Kind[n.Pre] != KindElem {
		return "", false
	}
	nid, alias := s.attrNames.ids(name)
	if nid < 0 {
		return "", false
	}
	lo, hi := f.Attrs(n.Pre)
	for i := lo; i < hi; i++ {
		if f.AttrName[i] == nid || f.AttrName[i] == alias {
			return s.attrVals.Get(f.AttrVal[i]), true
		}
	}
	return "", false
}

// Persistence ------------------------------------------------------------------

// snapshot is the gob-encoded on-disk form of a store — the moral
// equivalent of MonetDB's persisted BATs: load once, shred never again.
type snapshot struct {
	Frags []fragSnapshot
	Docs  map[string]int32
	Pools [4][]string // tags, attrNames, texts, attrVals
}

type fragSnapshot struct {
	Name      string
	Size      []int32
	Level     []int32
	Kind      []NodeKind
	Prop      []int32
	Parent    []int32
	AttrOwner []int32
	AttrName  []int32
	AttrVal   []int32
}

// WriteSnapshot serializes the whole store (fragments, document registry,
// surrogate pools). A scratch view writes its base: private content is
// never persisted.
func (s *Store) WriteSnapshot(w io.Writer) error {
	if s.base != nil {
		return s.base.WriteSnapshot(w)
	}
	snap := snapshot{
		Pools: [4][]string{s.tags.snapshot(), s.attrNames.snapshot(), s.texts.snapshot(), s.attrVals.snapshot()},
	}
	s.mu.RLock()
	snap.Docs = make(map[string]int32, len(s.docs))
	for u, id := range s.docs {
		snap.Docs[u] = id
	}
	frags := s.frags.view() // under mu: the registry as of the docs table just copied
	s.mu.RUnlock()
	for _, f := range frags {
		snap.Frags = append(snap.Frags, fragSnapshot{
			Name: f.Name, Size: f.Size, Level: f.Level, Kind: f.Kind,
			Prop: f.Prop, Parent: f.Parent,
			AttrOwner: f.AttrOwner, AttrName: f.AttrName, AttrVal: f.AttrVal,
		})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// ReadSnapshot restores a store previously written with WriteSnapshot.
// The receiving store must be empty.
func (s *Store) ReadSnapshot(r io.Reader) error {
	if s.base != nil {
		return fmt.Errorf("ReadSnapshot: store is a scratch view")
	}
	if s.frags.len() != 0 || len(s.docs) != 0 {
		return fmt.Errorf("ReadSnapshot: store is not empty")
	}
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("ReadSnapshot: %w", err)
	}
	restorePool := func(p *pool, strs []string) {
		for _, str := range strs {
			p.Put(str)
		}
	}
	restorePool(s.tags, snap.Pools[0])
	restorePool(s.attrNames, snap.Pools[1])
	restorePool(s.texts, snap.Pools[2])
	restorePool(s.attrVals, snap.Pools[3])
	for _, fs := range snap.Frags {
		f := &Fragment{
			Name: fs.Name, Size: fs.Size, Level: fs.Level, Kind: fs.Kind,
			Prop: fs.Prop, Parent: fs.Parent,
			AttrOwner: fs.AttrOwner, AttrName: fs.AttrName, AttrVal: fs.AttrVal,
		}
		f.sealAttrs()
		if err := f.Validate(); err != nil {
			return fmt.Errorf("ReadSnapshot: fragment %q: %w", fs.Name, err)
		}
		s.addFrag(f)
	}
	if snap.Docs != nil {
		s.docs = snap.Docs
	}
	return nil
}

// Columnar exchange (internal/pfstore) ----------------------------------------

// Parts is the raw columnar content of a store: the fragments with their
// fixed-width columns, the document registry, and the four string pools in
// surrogate order. It is the exchange format between the in-memory store
// and the persistent columnar layer (internal/pfstore), which lays the
// same arrays out as file sections.
type Parts struct {
	Frags []*Fragment
	Docs  map[string]int32
	Pools [4][]string // tags, attrNames, texts, attrVals
}

// Parts snapshots the store's columnar content. Fragment column slices are
// shared, not copied — fragments are immutable once registered, so callers
// may read them freely but must not mutate. A scratch view hands out its
// base's parts: private content is never persisted.
func (s *Store) Parts() Parts {
	if s.base != nil {
		return s.base.Parts()
	}
	s.mu.RLock()
	frags := append([]*Fragment(nil), s.frags.view()...)
	docs := make(map[string]int32, len(s.docs))
	for u, id := range s.docs {
		docs[u] = id
	}
	s.mu.RUnlock()
	return Parts{
		Frags: frags,
		Docs:  docs,
		Pools: [4][]string{s.tags.snapshot(), s.attrNames.snapshot(), s.texts.snapshot(), s.attrVals.snapshot()},
	}
}

// NewStoreFromParts builds a store around existing columnar content —
// the fast path the persistent store's Open uses: column slices are
// adopted as-is (they may alias a read-only file buffer), pools skip
// index construction until first content lookup, and only the cheap
// structural seal (attribute offsets) is recomputed. Callers are
// responsible for having verified the columns (pfstore checks section
// checksums and bounds before handing them over).
func NewStoreFromParts(p Parts) (*Store, error) {
	s := &Store{
		docs:      make(map[string]int32, len(p.Docs)),
		tags:      newPoolFromStrings(p.Pools[0]),
		attrNames: newPoolFromStrings(p.Pools[1]),
		texts:     newPoolFromStrings(p.Pools[2]),
		attrVals:  newPoolFromStrings(p.Pools[3]),
	}
	for _, f := range p.Frags {
		n := len(f.Size)
		if len(f.Level) != n || len(f.Kind) != n || len(f.Prop) != n || len(f.Parent) != n {
			return nil, fmt.Errorf("fragment %q: column lengths disagree", f.Name)
		}
		if len(f.AttrName) != len(f.AttrOwner) || len(f.AttrVal) != len(f.AttrOwner) {
			return nil, fmt.Errorf("fragment %q: attribute column lengths disagree", f.Name)
		}
		// Seal only fresh fragments (pfstore.Open hands over bare columns).
		// Fragments adopted from a live store are already sealed and may be
		// concurrently read by in-flight queries — resealing would refill
		// the shared attrOfs slice under their feet.
		if !f.sealed() {
			f.sealAttrs()
		}
		s.frags.push(f)
	}
	for u, id := range p.Docs {
		if id < 0 || int(id) >= s.frags.len() {
			return nil, fmt.Errorf("document %q: fragment id %d out of range", u, id)
		}
		s.docs[u] = id
	}
	return s, nil
}

// Storage accounting (§3.1) ---------------------------------------------------

// StorageReport breaks down the encoded size of the store.
type StorageReport struct {
	StructuralBytes int64 // pre|size|level|kind|prop + attribute tables
	TagPoolBytes    int64
	TextPoolBytes   int64
	AttrPoolBytes   int64 // names + values
	Nodes           int64
	Attrs           int64
}

// Total returns the total encoded bytes.
func (r StorageReport) Total() int64 {
	return r.StructuralBytes + r.TagPoolBytes + r.TextPoolBytes + r.AttrPoolBytes
}

// Report computes the storage footprint of all fragments plus pools; a
// scratch view reports its base's plus its own.
func (s *Store) Report() StorageReport {
	var r StorageReport
	if s.base != nil {
		r = s.base.Report()
	}
	for _, f := range s.frags.view() {
		r.StructuralBytes += f.EncodedBytes()
		r.Nodes += int64(f.NodeCount())
		r.Attrs += int64(f.AttrCount())
	}
	r.TagPoolBytes += s.tags.bytes() + s.attrNames.bytes()
	r.TextPoolBytes += s.texts.bytes()
	r.AttrPoolBytes += s.attrVals.bytes()
	return r
}
