package mil

import (
	"fmt"
	"strconv"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Parse reads a MIL program back into an algebra plan — the server side of
// the protocol.
func Parse(program string) (*algebra.Op, error) {
	vars := make(map[string]*algebra.Op)
	for lineNo, raw := range strings.Split(program, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		if rest, ok := strings.CutPrefix(line, "return "); ok {
			op, found := vars[strings.TrimSpace(rest)]
			if !found {
				return nil, fmt.Errorf("mil line %d: return of undefined %q", lineNo+1, rest)
			}
			return op, nil
		}
		name, rhs, ok := strings.Cut(line, ":=")
		if !ok {
			return nil, fmt.Errorf("mil line %d: expected assignment", lineNo+1)
		}
		name = strings.TrimSpace(name)
		op, err := parseRHS(strings.TrimSpace(rhs), vars)
		if err != nil {
			return nil, fmt.Errorf("mil line %d: %w", lineNo+1, err)
		}
		if _, dup := vars[name]; dup {
			return nil, fmt.Errorf("mil line %d: %s assigned twice", lineNo+1, name)
		}
		vars[name] = op
	}
	return nil, fmt.Errorf("mil: program has no return statement")
}

func parseRHS(rhs string, vars map[string]*algebra.Op) (*algebra.Op, error) {
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return nil, fmt.Errorf("malformed instruction %q", rhs)
	}
	opName := rhs[:open]
	argsStr := rhs[open+1 : len(rhs)-1]
	if opName == "table" {
		return parseTable(argsStr)
	}
	args, err := splitArgs(argsStr)
	if err != nil {
		return nil, err
	}
	getVar := func(i int) (*algebra.Op, error) {
		if i >= len(args) {
			return nil, fmt.Errorf("%s: missing operand %d", opName, i)
		}
		v, ok := vars[args[i]]
		if !ok {
			return nil, fmt.Errorf("%s: undefined variable %q", opName, args[i])
		}
		return v, nil
	}
	switch opName {
	case "project":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		return algebra.Project(in, args[1:]...)
	case "select":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		return algebra.Select(in, args[1])
	case "elem":
		root, err := getVar(0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 || !strings.HasPrefix(args[1], `"`) {
			content, err := getVar(1)
			if err != nil {
				return nil, err
			}
			return algebra.Elem(root, content)
		}
		src, err := strconv.Unquote(args[1])
		if err != nil {
			return nil, fmt.Errorf("bad skeleton %q", args[1])
		}
		skel, err := algebra.ParseSkeleton(src)
		if err != nil {
			return nil, err
		}
		slots := make([]*algebra.Op, len(args)-2)
		for i := range slots {
			if slots[i], err = getVar(i + 2); err != nil {
				return nil, err
			}
		}
		return algebra.ElemSkel(root, skel, slots...)
	case "union", "cross", "attr":
		l, err := getVar(0)
		if err != nil {
			return nil, err
		}
		r, err := getVar(1)
		if err != nil {
			return nil, err
		}
		switch opName {
		case "union":
			return algebra.Union(l, r)
		case "cross":
			return algebra.Cross(l, r)
		case "elem":
			return algebra.Elem(l, r)
		default:
			return algebra.AttrC(l, r)
		}
	case "distinct", "doc", "roots", "text", "collection":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		switch opName {
		case "distinct":
			return algebra.Distinct(in), nil
		case "doc":
			return algebra.DocOp(in)
		case "roots":
			return algebra.Roots(in)
		case "collection":
			return algebra.CollOp(in)
		default:
			return algebra.Text(in)
		}
	case "join", "semijoin", "diff":
		l, err := getVar(0)
		if err != nil {
			return nil, err
		}
		r, err := getVar(1)
		if err != nil {
			return nil, err
		}
		kl, kr, err := parseKeys(args[2])
		if err != nil {
			return nil, err
		}
		switch opName {
		case "join":
			return algebra.Join(l, r, kl, kr)
		case "semijoin":
			return algebra.SemiJoin(l, r, kl, kr)
		default:
			return algebra.Diff(l, r, kl, kr)
		}
	case "rownum":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		ords, err := parseOrder(args[2])
		if err != nil {
			return nil, err
		}
		part := args[3]
		if part == "-" {
			part = ""
		}
		return algebra.RowNum(in, args[1], ords, part)
	case "rowid":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		return algebra.RowID(in, args[1])
	case "range":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		return algebra.Range(in, args[1], args[2])
	case "fun":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		fargs, err := splitArgs(strings.Trim(args[3], "()"))
		if err != nil {
			return nil, err
		}
		if rest, ok := strings.CutPrefix(args[2], "typeis:"); ok {
			tyStr, tyName, _ := strings.Cut(rest, ":")
			ty, err := strconv.Atoi(tyStr)
			if err != nil {
				return nil, fmt.Errorf("bad typeis %q", args[2])
			}
			return algebra.TypeTest(in, args[1], algebra.SeqType(ty), tyName, fargs[0])
		}
		kind, ok := funByName[args[2]]
		if !ok {
			return nil, fmt.Errorf("unknown function %q", args[2])
		}
		return algebra.Fun(in, args[1], kind, fargs...)
	case "aggr":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		kind, ok := aggByName[args[2]]
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %q", args[2])
		}
		arg := args[3]
		if arg == "-" {
			arg = ""
		}
		part := args[4]
		if part == "-" {
			part = ""
		}
		sep, err := strconv.Unquote(args[5])
		if err != nil {
			return nil, fmt.Errorf("bad separator %q", args[5])
		}
		a, err := algebra.Aggr(in, args[1], kind, arg, part)
		if err != nil {
			return nil, err
		}
		a.Sep = sep
		return a, nil
	case "step":
		in, err := getVar(0)
		if err != nil {
			return nil, err
		}
		axis, err := algebra.AxisByName(args[1])
		if err != nil {
			return nil, err
		}
		tk, ok := testByName[args[2]]
		if !ok {
			return nil, fmt.Errorf("unknown node test %q", args[2])
		}
		name, err := strconv.Unquote(args[3])
		if err != nil {
			return nil, fmt.Errorf("bad test name %q", args[3])
		}
		return algebra.Step(in, axis, algebra.KindTest{Kind: tk, Name: name})
	}
	return nil, fmt.Errorf("unknown instruction %q", opName)
}

// splitArgs splits a comma-separated argument list, respecting quotes,
// parentheses, and brackets.
func splitArgs(s string) ([]string, error) {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced brackets in %q", s)
			}
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if inStr || depth != 0 {
		return nil, fmt.Errorf("unbalanced quoting in %q", s)
	}
	if last := strings.TrimSpace(s[start:]); last != "" {
		out = append(out, last)
	}
	return out, nil
}

// parseKeys parses "(a=b, c=d)".
func parseKeys(s string) ([]string, []string, error) {
	inner := strings.Trim(s, "()")
	parts, err := splitArgs(inner)
	if err != nil {
		return nil, nil, err
	}
	kl := make([]string, len(parts))
	kr := make([]string, len(parts))
	for i, p := range parts {
		l, r, ok := strings.Cut(p, "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad key pair %q", p)
		}
		kl[i], kr[i] = strings.TrimSpace(l), strings.TrimSpace(r)
	}
	return kl, kr, nil
}

// parseOrder parses "(a, b:desc)".
func parseOrder(s string) ([]algebra.OrderSpec, error) {
	inner := strings.Trim(s, "()")
	if strings.TrimSpace(inner) == "" {
		return nil, nil
	}
	parts, err := splitArgs(inner)
	if err != nil {
		return nil, err
	}
	out := make([]algebra.OrderSpec, len(parts))
	for i, p := range parts {
		col, mod, hasMod := strings.Cut(p, ":")
		out[i] = algebra.OrderSpec{Col: strings.TrimSpace(col)}
		if hasMod {
			if strings.TrimSpace(mod) != "desc" {
				return nil, fmt.Errorf("bad order modifier %q", mod)
			}
			out[i].Desc = true
		}
	}
	return out, nil
}

// parseTable parses table(name:type[items...], ...).
func parseTable(s string) (*algebra.Op, error) {
	cols, err := splitArgs(s)
	if err != nil {
		return nil, err
	}
	t := &bat.Table{}
	for _, cs := range cols {
		head, items, ok := strings.Cut(cs, "[")
		if !ok || !strings.HasSuffix(items, "]") {
			return nil, fmt.Errorf("bad column %q", cs)
		}
		items = items[:len(items)-1]
		name, tyName, ok := strings.Cut(head, ":")
		if !ok {
			return nil, fmt.Errorf("bad column head %q", head)
		}
		ty, err := colType(strings.TrimSpace(tyName))
		if err != nil {
			return nil, err
		}
		b := bat.NewVec(ty, 8)
		for items = strings.TrimSpace(items); items != ""; {
			var lit string
			lit, items, err = cutItem(items)
			if err != nil {
				return nil, err
			}
			it, err := parseItem(lit)
			if err != nil {
				return nil, err
			}
			b.AppendItem(it)
		}
		if err := t.AddCol(strings.TrimSpace(name), b.Build()); err != nil {
			return nil, err
		}
	}
	return algebra.Lit(t), nil
}

func colType(s string) (bat.ColType, error) {
	switch s {
	case "int":
		return bat.TInt, nil
	case "dbl":
		return bat.TFloat, nil
	case "str":
		return bat.TStr, nil
	case "bit":
		return bat.TBool, nil
	case "node":
		return bat.TNode, nil
	case "item":
		return bat.TItem, nil
	}
	return 0, fmt.Errorf("unknown column type %q", s)
}

// cutItem splits the first item literal off a space-separated item list,
// respecting quoted strings.
func cutItem(s string) (lit, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty item literal")
	}
	if s[0] == 's' || s[0] == 'u' {
		if len(s) < 2 || s[1] != '"' {
			return "", "", fmt.Errorf("malformed string literal %q", s)
		}
		for i := 2; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				return s[:i+1], strings.TrimSpace(s[i+1:]), nil
			}
		}
		return "", "", fmt.Errorf("unterminated string literal %q", s)
	}
	if sp := strings.IndexByte(s, ' '); sp >= 0 {
		return s[:sp], strings.TrimSpace(s[sp+1:]), nil
	}
	return s, "", nil
}

func parseItem(lit string) (bat.Item, error) {
	if lit == "bt" {
		return bat.Bool(true), nil
	}
	if lit == "bf" {
		return bat.Bool(false), nil
	}
	if len(lit) < 2 {
		return bat.Item{}, fmt.Errorf("bad item literal %q", lit)
	}
	body := lit[1:]
	switch lit[0] {
	case 'i':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return bat.Item{}, fmt.Errorf("bad int literal %q", lit)
		}
		return bat.Int(n), nil
	case 'd':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return bat.Item{}, fmt.Errorf("bad double literal %q", lit)
		}
		return bat.Float(f), nil
	case 's', 'u':
		s, err := strconv.Unquote(body)
		if err != nil {
			return bat.Item{}, fmt.Errorf("bad string literal %q", lit)
		}
		if lit[0] == 'u' {
			return bat.Untyped(s), nil
		}
		return bat.Str(s), nil
	case 'n':
		fs, ps, ok := strings.Cut(body, ".")
		if !ok {
			return bat.Item{}, fmt.Errorf("bad node literal %q", lit)
		}
		f, err1 := strconv.ParseInt(fs, 10, 32)
		p, err2 := strconv.ParseInt(ps, 10, 32)
		if err1 != nil || err2 != nil {
			return bat.Item{}, fmt.Errorf("bad node literal %q", lit)
		}
		return bat.Node(bat.NodeRef{Frag: int32(f), Pre: int32(p)}), nil
	}
	return bat.Item{}, fmt.Errorf("bad item literal %q", lit)
}
