package physical

import (
	"fmt"
	"strings"
)

// Dot renders the physical plan in Graphviz syntax, parallel to
// algebra.Dot for logical plans: each node shows the logical operator,
// its kernel family and, when note is set, what note says about the
// node (cmd/pf passes the optimizer's order/denseness properties).
// Pipeline operators are drawn with rounded corners, breakers
// (materializing operators) as plain boxes. The members of a theta
// join are grouped into a cluster subgraph labeled with the unit's id,
// so the one multi-operator execution unit is visible in the rendered
// plan.
func Dot(p *Plan, note func(*Node) string) string {
	ids := make(map[*Node]int, len(p.Nodes))
	unitOf := make(map[*Node]*ThetaJoin)
	for _, tj := range p.ThetaJoins {
		for _, nd := range tj.Members() {
			unitOf[nd] = tj
		}
	}
	var sb strings.Builder
	sb.WriteString("digraph physical {\n  node [shape=box, fontname=\"monospace\"];\n")
	nodeDecl := func(i int, nd *Node, indent string) {
		lines := []string{escape(nd.Op.Label()), escape(nd.Kernel)}
		var notes []string
		if note != nil {
			if s := note(nd); s != "" {
				notes = append(notes, s)
			}
		}
		style := ""
		if Pipeline(nd.Op.Kind) {
			notes = append(notes, "pipeline")
			style = ", style=rounded"
		}
		if nd.Stream {
			notes = append(notes, "stream")
		}
		if len(notes) > 0 {
			lines = append(lines, escape(strings.Join(notes, " ")))
		}
		fmt.Fprintf(&sb, "%sn%d [label=\"%s\"%s];\n", indent, i, strings.Join(lines, `\n`), style)
	}
	for i, nd := range p.Nodes {
		ids[nd] = i
	}
	for i, nd := range p.Nodes {
		if tj := unitOf[nd]; tj != nil {
			// Declared inside its unit's cluster below; declare the
			// cluster when we reach the first member so declaration order
			// stays topological.
			if nd != tj.Cross {
				continue
			}
			label := fmt.Sprintf("theta join #%d", tj.ID)
			if tj.Count != nil {
				label += " (count only)"
			}
			fmt.Fprintf(&sb, "  subgraph cluster_theta_%d {\n    label=\"%s\";\n    style=dashed;\n", tj.ID, label)
			for _, m := range tj.Members() {
				nodeDecl(ids[m], m, "    ")
			}
			sb.WriteString("  }\n")
			continue
		}
		nodeDecl(i, nd, "  ")
	}
	for _, nd := range p.Nodes {
		for k, in := range nd.In {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%d\"];\n", ids[nd], ids[in], k)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// escape quotes the characters Graphviz treats specially inside a
// double-quoted label.
func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
