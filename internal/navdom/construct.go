package navdom

import (
	"fmt"
	"strings"

	"pathfinder/internal/xqcore"
)

// constructor support: built trees get a fresh DocID so node identity and
// document order behave like the relational engine's fresh fragments.

type builder struct {
	docID int
	ord   int
}

func (b *builder) node(kind NodeKind) *Node {
	b.ord++
	return &Node{Kind: kind, DocID: b.docID, Ord: b.ord}
}

// copyNode deep-copies a subtree into the builder's tree space.
func (b *builder) copyNode(src *Node) *Node {
	n := b.node(src.Kind)
	n.Name, n.Text = src.Name, src.Text
	for _, a := range src.Attrs {
		ca := b.node(Attr)
		ca.Name, ca.Text = a.Name, a.Text
		ca.Parent = n
		n.Attrs = append(n.Attrs, ca)
	}
	for _, c := range src.Children {
		cc := b.copyNode(c)
		cc.Parent = n
		n.Children = append(n.Children, cc)
	}
	return n
}

func (ip *Interp) evalElemC(x *xqcore.ElemC, en *env) ([]Item, error) {
	names, err := ip.Eval(x.Name, en)
	if err != nil {
		return nil, err
	}
	if len(names) != 1 {
		return nil, fmt.Errorf("element constructor name is not a singleton")
	}
	name := names[0].stringValue()
	if name == "" {
		return nil, fmt.Errorf("empty element name")
	}
	content, err := ip.Eval(x.Content, en)
	if err != nil {
		return nil, err
	}
	b := &builder{docID: ip.DB.nextDocID()}
	el := b.node(Elem)
	el.Name = name
	// addChild appends a copied or constructed child; a text node landing
	// next to a text node folds into it — adjacent text nodes in
	// constructor content merge (XQuery §3.7.1.3), as in the relational
	// fragment builder. The merged string collects in run and reaches the
	// node when the run ends, so n adjacent texts cost one copy, not n.
	var run strings.Builder
	var runNode *Node
	endRun := func() {
		if runNode != nil {
			runNode.Text = run.String()
			run.Reset()
			runNode = nil
		}
	}
	addChild := func(c *Node) {
		if n := len(el.Children); c.Kind == Text && n > 0 && el.Children[n-1].Kind == Text {
			if runNode == nil {
				runNode = el.Children[n-1]
				run.WriteString(runNode.Text)
			}
			run.WriteString(c.Text)
			return
		}
		endRun()
		c.Parent = el
		el.Children = append(el.Children, c)
	}
	var pendingText strings.Builder
	pendingAny := false
	flush := func() {
		if pendingAny {
			// Empty accumulated text constructs no node, matching the
			// relational fragment builder.
			if s := pendingText.String(); s != "" {
				t := b.node(Text)
				t.Text = s
				addChild(t)
			}
			pendingText.Reset()
			pendingAny = false
		}
	}
	for _, it := range content {
		if it.Node != nil {
			flush()
			switch it.Node.Kind {
			case Attr:
				if len(el.Children) > 0 {
					return nil, fmt.Errorf("attribute after element content")
				}
				for _, have := range el.Attrs {
					if have.Name == it.Node.Name {
						return nil, fmt.Errorf("XQDY0025: duplicate attribute %q on a constructed element", have.Name)
					}
				}
				a := b.node(Attr)
				a.Name, a.Text = it.Node.Name, it.Node.Text
				a.Parent = el
				el.Attrs = append(el.Attrs, a)
			case Doc:
				for _, c := range it.Node.Children {
					addChild(b.copyNode(c))
				}
			default:
				addChild(b.copyNode(it.Node))
			}
			continue
		}
		if pendingAny {
			pendingText.WriteByte(' ')
		}
		pendingText.WriteString(it.Atom.StringValue())
		pendingAny = true
	}
	flush()
	endRun()
	return []Item{{Node: el}}, nil
}

func (ip *Interp) evalAttrC(x *xqcore.AttrC, en *env) ([]Item, error) {
	names, err := ip.Eval(x.Name, en)
	if err != nil {
		return nil, err
	}
	if len(names) != 1 {
		return nil, fmt.Errorf("attribute constructor name is not a singleton")
	}
	name := names[0].stringValue()
	if name == "" {
		return nil, fmt.Errorf("empty attribute name")
	}
	vals, err := ip.Eval(x.Value, en)
	if err != nil {
		return nil, err
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.atomize().StringValue()
	}
	b := &builder{docID: ip.DB.nextDocID()}
	a := b.node(Attr)
	a.Name = name
	a.Text = strings.Join(parts, " ")
	return []Item{{Node: a}}, nil
}

func (ip *Interp) evalTextC(x *xqcore.TextC, en *env) ([]Item, error) {
	content, err := ip.Eval(x.Content, en)
	if err != nil {
		return nil, err
	}
	if len(content) == 0 {
		return nil, nil
	}
	parts := make([]string, len(content))
	for i, v := range content {
		parts[i] = v.atomize().StringValue()
	}
	s := strings.Join(parts, " ")
	if s == "" {
		return nil, nil
	}
	b := &builder{docID: ip.DB.nextDocID()}
	t := b.node(Text)
	t.Text = s
	return []Item{{Node: t}}, nil
}
