package algebra

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// SkelKind is the kind of one step of an ε skeleton.
type SkelKind uint8

// Skeleton steps.
const (
	SkelOpen  SkelKind = iota // start an element named Name
	SkelAttr                  // attribute Name on the innermost open element, its value from slot Slot
	SkelSlot                  // content of the innermost open element: slot Slot's items
	SkelClose                 // end the innermost open element
)

// SkelNode is one step of an ε skeleton. Slot numbers the ε input the
// step reads: slot k is input k+1.
type SkelNode struct {
	Kind SkelKind
	Slot int32
	Name string
}

// Skeleton is the static shape of the element tree one ε builds per
// iteration, in document order: a direct constructor and every direct
// child constructor with a literal name, inlined. What is only known at
// run time fills slots — iter|pos|item inputs compiled in the ε's own
// loop. A content slot contributes its items for the iteration in pos
// order under the constructor content rules (atomics adjacent in the
// iteration's content join with a space, across slots of one element; a
// child element ends the run). An attribute slot's items, string values
// joined with a space, are the value of a named attribute ("" for none).
//
// The root Open's Name is "" when the root name is dynamic: input 0 is
// then an iter|item table of names, one row per iter. A static root
// takes the loop relation (iter) as input 0 and constructs one element
// per loop row. The binary ε of the paper — name table and one content
// table — is the skeleton <*>$0</*>.
type Skeleton []SkelNode

// dynamicSkel is the one-slot skeleton of the binary ε.
var dynamicSkel = Skeleton{{Kind: SkelOpen}, {Kind: SkelSlot}, {Kind: SkelClose}}

// Binary reports whether the skeleton is the binary ε's, <*>$0</*>.
func (s Skeleton) Binary() bool {
	return len(s) == 3 && s.Dynamic() && s[1].Kind == SkelSlot
}

// Dynamic reports whether the root element's name comes from input 0.
func (s Skeleton) Dynamic() bool { return len(s) > 0 && s[0].Name == "" }

// Slots returns the number of slot inputs the skeleton reads.
func (s Skeleton) Slots() int {
	n := 0
	for _, st := range s {
		if st.Kind == SkelAttr || st.Kind == SkelSlot {
			n++
		}
	}
	return n
}

// SkelName reports whether name can be a static element or attribute
// name of a skeleton: non-empty, and free of the characters its textual
// form (String, ParseSkeleton) uses as delimiters.
func SkelName(name string) bool {
	return name != "" && !strings.ContainsAny(name, " \t\r\n<>/=\"$*")
}

// Validate checks the skeleton's own structure: one root element that
// opens first and closes last, balanced opens and closes, static names
// everywhere but a dynamic root, and slots numbered 0, 1, ... in order.
func (s Skeleton) Validate() error {
	if len(s) < 2 || s[0].Kind != SkelOpen || s[len(s)-1].Kind != SkelClose {
		return fmt.Errorf("skeleton must be one element: %s", s)
	}
	depth, slot := 0, int32(0)
	for i, st := range s {
		if i > 0 && depth == 0 {
			return fmt.Errorf("skeleton step %d follows the root element", i)
		}
		switch st.Kind {
		case SkelOpen:
			if (i > 0 || st.Name != "") && !SkelName(st.Name) {
				return fmt.Errorf("skeleton step %d: bad element name %q", i, st.Name)
			}
			depth++
		case SkelClose:
			depth--
		case SkelAttr, SkelSlot:
			if st.Kind == SkelAttr && !SkelName(st.Name) {
				return fmt.Errorf("skeleton step %d: bad attribute name %q", i, st.Name)
			}
			if st.Slot != slot {
				return fmt.Errorf("skeleton step %d reads slot %d, want %d", i, st.Slot, slot)
			}
			slot++
		default:
			return fmt.Errorf("skeleton step %d: unknown kind %d", i, st.Kind)
		}
	}
	if depth != 0 {
		return fmt.Errorf("skeleton leaves %d element(s) open", depth)
	}
	return nil
}

// String renders the skeleton as an XML template: $k is slot k, a dynamic
// root name is *, and an element without content closes itself —
// <item person=$0>$1</item>, <*>$0</*>. An attribute after content (a
// run-time error, XQTY0024, if an iteration reaches it) is written where
// it stands: <a>$0 x=$1</a>.
func (s Skeleton) String() string {
	var sb strings.Builder
	var open []string
	inTag := false // a start tag is written up to its attributes
	for _, st := range s {
		if inTag && (st.Kind == SkelOpen || st.Kind == SkelSlot) {
			sb.WriteByte('>')
			inTag = false
		}
		switch st.Kind {
		case SkelOpen:
			name := cmp.Or(st.Name, "*")
			open = append(open, name)
			sb.WriteString("<" + name)
			inTag = true
		case SkelAttr:
			fmt.Fprintf(&sb, " %s=$%d", st.Name, st.Slot)
		case SkelSlot:
			fmt.Fprintf(&sb, "$%d", st.Slot)
		case SkelClose:
			switch {
			case inTag:
				sb.WriteString("/>")
				inTag = false
			case len(open) > 0:
				sb.WriteString("</" + open[len(open)-1] + ">")
			default:
				sb.WriteString("</?>")
			}
			if len(open) > 0 {
				open = open[:len(open)-1]
			}
		}
	}
	if inTag {
		sb.WriteByte('>')
	}
	return sb.String()
}

// ParseSkeleton reads the textual form String writes.
func ParseSkeleton(src string) (Skeleton, error) {
	var s Skeleton
	var open []string
	i := 0
	name := func() string {
		j := i
		for j < len(src) && !strings.ContainsRune(" \t\r\n<>/=$", rune(src[j])) {
			j++
		}
		n := src[i:j]
		i = j
		return n
	}
	slot := func() (int32, error) {
		if i >= len(src) || src[i] != '$' {
			return 0, fmt.Errorf("skeleton %q: want $slot at %d", src, i)
		}
		i++
		j := i
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
		}
		k, err := strconv.ParseInt(src[i:j], 10, 32)
		if err != nil {
			return 0, fmt.Errorf("skeleton %q: bad slot at %d", src, i)
		}
		i = j
		return int32(k), nil
	}
	attr := func() error {
		for i < len(src) && src[i] == ' ' {
			i++
		}
		an := name()
		if an == "" || i >= len(src) || src[i] != '=' {
			return fmt.Errorf("skeleton %q: bad attribute at %d", src, i)
		}
		i++
		k, err := slot()
		if err != nil {
			return err
		}
		s = append(s, SkelNode{Kind: SkelAttr, Name: an, Slot: k})
		return nil
	}
	for i < len(src) {
		switch {
		case src[i] == ' ':
			if err := attr(); err != nil {
				return nil, err
			}
		case strings.HasPrefix(src[i:], "</"):
			i += 2
			n := name()
			if len(open) == 0 || open[len(open)-1] != n || i >= len(src) || src[i] != '>' {
				return nil, fmt.Errorf("skeleton %q: unmatched </%s>", src, n)
			}
			i++
			open = open[:len(open)-1]
			s = append(s, SkelNode{Kind: SkelClose})
		case src[i] == '<':
			i++
			n := name()
			if n == "" {
				return nil, fmt.Errorf("skeleton %q: element without a name at %d", src, i)
			}
			open = append(open, n)
			if n == "*" {
				n = ""
			}
			s = append(s, SkelNode{Kind: SkelOpen, Name: n})
			for {
				if strings.HasPrefix(src[i:], "/>") {
					i += 2
					open = open[:len(open)-1]
					s = append(s, SkelNode{Kind: SkelClose})
					break
				}
				if i < len(src) && src[i] == '>' {
					i++
					break
				}
				if err := attr(); err != nil {
					return nil, err
				}
			}
		default:
			k, err := slot()
			if err != nil {
				return nil, err
			}
			s = append(s, SkelNode{Kind: SkelSlot, Slot: k})
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ElemSkel is the ε operator over a skeleton: per row of root, construct
// the skeleton's element tree with the iteration's rows of each slot
// filled in. root is the loop relation (iter) for a static root name and
// an iter|item name table for a dynamic one; every slot is an
// iter|pos|item table. Output: iter|item with the new root elements.
func ElemSkel(root *Op, skel Skeleton, slots ...*Op) (*Op, error) {
	if err := checkElem(root, skel, slots); err != nil {
		return nil, err
	}
	in := make([]*Op, 0, 1+len(slots))
	in = append(append(in, root), slots...)
	return &Op{Kind: OpElem, In: in, Skel: skel, schema: []string{"iter", "item"}}, nil
}

func checkElem(root *Op, skel Skeleton, slots []*Op) error {
	if err := skel.Validate(); err != nil {
		return fmt.Errorf("ε: %w", err)
	}
	if n := skel.Slots(); n != len(slots) {
		return fmt.Errorf("ε: skeleton %s reads %d slot(s), got %d", skel, n, len(slots))
	}
	if err := requireCols(root, "ε", "iter"); err != nil {
		return err
	}
	if skel.Dynamic() {
		if err := requireCols(root, "ε", "item"); err != nil {
			return err
		}
	}
	for _, sl := range slots {
		if err := requireCols(sl, "ε", "iter", "pos", "item"); err != nil {
			return err
		}
	}
	return nil
}
