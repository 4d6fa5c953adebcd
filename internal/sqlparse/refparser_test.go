package sqlparse

// This file retains the pre-rewrite SQL front-end — the allocating
// lex-then-parse pipeline — verbatim (modulo ref* renames), as the
// behavioural reference for the differential fuzz test: the rewritten
// on-demand lexer + Pratt parser must accept and reject exactly the
// same inputs and build identical statements. Do not "improve" this
// code; its value is that it does not change.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/vec"
)

// refLex is the historical whole-input lexer.
func refLex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < n && input[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sqlparse: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case unicode.IsDigit(c) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			j := i
			seenDot, seenExp := false, false
			for j < n {
				d := input[j]
				if unicode.IsDigit(rune(d)) {
					j++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					j++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && j > i {
					seenExp = true
					j++
					if j < n && (input[j] == '+' || input[j] == '-') {
						j++
					}
					continue
				}
				break
			}
			for j < n && (unicode.IsLetter(rune(input[j]))) {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_' || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		case strings.ContainsRune("(),*=+-/", c):
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: ">", pos: i})
				i++
			}
		case c == ';':
			i++
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// refTokIsKeyword is the historical keyword test (case-insensitive
// Unicode folding on identifier text).
func refTokIsKeyword(t token, kwd string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kwd)
}

// refParse is the historical Parse.
func refParse(sql string) (*Statement, error) {
	toks, err := refLex(sql)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks, input: sql}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !refTokIsKeyword(p.cur(), "") && p.cur().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

type refParser struct {
	toks  []token
	pos   int
	input string
}

func (p *refParser) cur() token  { return p.toks[p.pos] }
func (p *refParser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *refParser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near offset %d in %q)",
		fmt.Sprintf(format, args...), p.cur().pos, truncate(p.input, 60))
}

func (p *refParser) expectKeyword(kwd string) error {
	if !refTokIsKeyword(p.cur(), kwd) {
		return p.errorf("expected %s, got %q", strings.ToUpper(kwd), p.cur().text)
	}
	p.pos++
	return nil
}

func (p *refParser) expectSymbol(sym string) error {
	if p.cur().kind != tokSymbol || p.cur().text != sym {
		return p.errorf("expected %q, got %q", sym, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *refParser) acceptKeyword(kwd string) bool {
	if refTokIsKeyword(p.cur(), kwd) {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	var st Statement
	if err := p.parseSelectList(&st.Query); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errorf("expected table name, got %q", p.cur().text)
	}
	st.Query.Table = p.next().text

	if p.acceptKeyword("WHERE") {
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Query.Where = pred
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errorf("expected GROUP BY column, got %q", p.cur().text)
		}
		st.Query.GroupBy = p.next().text
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errorf("expected ORDER BY column, got %q", p.cur().text)
		}
		st.Query.OrderBy = p.next().text
		if p.acceptKeyword("DESC") {
			st.Query.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, p.errorf("LIMIT must be positive, got 0")
		}
		st.Query.Limit = n
	}
	for p.acceptKeyword("WITHIN") {
		switch {
		case p.acceptKeyword("ERROR"):
			v, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if v <= 0 || v >= 1 {
				return nil, p.errorf("WITHIN ERROR wants a relative error in (0,1), got %g", v)
			}
			st.Bounds.MaxRelError = v
			st.Bounds.Confidence = 0.95
			if p.acceptKeyword("CONFIDENCE") {
				c, err := p.parseNumber()
				if err != nil {
					return nil, err
				}
				if c <= 0 || c >= 1 {
					return nil, p.errorf("CONFIDENCE wants a level in (0,1), got %g", c)
				}
				st.Bounds.Confidence = c
			}
		case p.acceptKeyword("TIME"):
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			st.Bounds.MaxTime = d
		default:
			return nil, p.errorf("WITHIN must be followed by ERROR or TIME")
		}
	}
	if err := st.Query.Validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

func (p *refParser) parseSelectList(q *engine.Query) error {
	if p.acceptSymbol("*") {
		q.Select = []string{"*"}
		return nil
	}
	for {
		if fn, ok := refAggKeyword(p.cur()); ok {
			spec, err := p.parseAgg(fn)
			if err != nil {
				return err
			}
			q.Aggs = append(q.Aggs, spec)
		} else if p.cur().kind == tokIdent {
			q.Select = append(q.Select, p.next().text)
		} else {
			return p.errorf("expected select item, got %q", p.cur().text)
		}
		if !p.acceptSymbol(",") {
			return nil
		}
	}
}

func refAggKeyword(t token) (engine.AggFunc, bool) {
	if t.kind != tokIdent {
		return 0, false
	}
	switch strings.ToUpper(t.text) {
	case "COUNT":
		return engine.Count, true
	case "SUM":
		return engine.Sum, true
	case "AVG":
		return engine.Avg, true
	case "MIN":
		return engine.Min, true
	case "MAX":
		return engine.Max, true
	case "STDDEV":
		return engine.StdDev, true
	}
	return 0, false
}

func (p *refParser) parseAgg(fn engine.AggFunc) (engine.AggSpec, error) {
	p.pos++ // consume function name
	var spec engine.AggSpec
	spec.Func = fn
	if err := p.expectSymbol("("); err != nil {
		return spec, err
	}
	if fn == engine.Count && p.acceptSymbol("*") {
		// COUNT(*): nil Arg.
	} else {
		arg, err := p.parseScalar()
		if err != nil {
			return spec, err
		}
		spec.Arg = arg
	}
	if err := p.expectSymbol(")"); err != nil {
		return spec, err
	}
	if p.acceptKeyword("AS") {
		if p.cur().kind != tokIdent {
			return spec, p.errorf("expected alias after AS, got %q", p.cur().text)
		}
		spec.Alias = p.next().text
	}
	return spec, nil
}

func (p *refParser) parseScalar() (expr.Scalar, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Arith{Op: expr.Add, L: left, R: right}
		case p.acceptSymbol("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Arith{Op: expr.Sub, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *refParser) parseTerm() (expr.Scalar, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Arith{Op: expr.Mul, L: left, R: right}
		case p.acceptSymbol("/"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Arith{Op: expr.Div, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *refParser) parseFactor() (expr.Scalar, error) {
	switch {
	case p.cur().kind == tokNumber:
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return expr.Const{V: v}, nil
	case p.cur().kind == tokIdent && !refIsReserved(p.cur().text):
		return expr.ColRef{Name: p.next().text}, nil
	case p.acceptSymbol("("):
		inner, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.acceptSymbol("-"):
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: expr.Sub, L: expr.Const{V: 0}, R: inner}, nil
	}
	return nil, p.errorf("expected scalar expression, got %q", p.cur().text)
}

func (p *refParser) parseOr() (expr.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or{L: left, R: right}
	}
	return left, nil
}

func (p *refParser) parseAnd() (expr.Predicate, error) {
	left, err := p.parseUnaryPred()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseUnaryPred()
		if err != nil {
			return nil, err
		}
		left = expr.And{L: left, R: right}
	}
	return left, nil
}

func (p *refParser) parseUnaryPred() (expr.Predicate, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseUnaryPred()
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		save := p.pos
		p.pos++
		inner, err := p.parseOr()
		if err == nil && p.acceptSymbol(")") {
			return inner, nil
		}
		p.pos = save
	}
	return p.parsePrimaryPred()
}

func (p *refParser) parsePrimaryPred() (expr.Predicate, error) {
	if refTokIsKeyword(p.cur(), "fGetNearbyObjEq") {
		return p.parseCone()
	}
	left, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return expr.Between{Expr: left, Lo: lo, Hi: hi}, nil
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokString {
		ref, ok := left.(expr.ColRef)
		if !ok {
			return nil, p.errorf("string comparison requires a plain column on the left")
		}
		if op != vec.Eq && op != vec.Ne {
			return nil, p.errorf("strings support only = and <>")
		}
		return expr.StrEq{Col: ref.Name, Value: p.next().text, Neg: op == vec.Ne}, nil
	}
	rhs, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, Left: left, Right: rhs}, nil
}

func (p *refParser) parseCone() (expr.Predicate, error) {
	p.pos++ // consume function name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ra, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	dec, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	radius, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: ra, Dec0: dec, Radius: radius}, nil
}

func (p *refParser) parseCmpOp() (vec.CmpOp, error) {
	if p.cur().kind != tokSymbol {
		return 0, p.errorf("expected comparison operator, got %q", p.cur().text)
	}
	var op vec.CmpOp
	switch p.cur().text {
	case "=":
		op = vec.Eq
	case "<>":
		op = vec.Ne
	case "<":
		op = vec.Lt
	case "<=":
		op = vec.Le
	case ">":
		op = vec.Gt
	case ">=":
		op = vec.Ge
	default:
		return 0, p.errorf("unknown operator %q", p.cur().text)
	}
	p.pos++
	return op, nil
}

func (p *refParser) parseNumber() (float64, error) {
	neg := false
	if p.acceptSymbol("-") {
		neg = true
	}
	if p.cur().kind != tokNumber {
		return 0, p.errorf("expected number, got %q", p.cur().text)
	}
	text := p.next().text
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, p.errorf("bad number %q: %v", text, err)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *refParser) parseInt() (int, error) {
	v, err := p.parseNumber()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if float64(n) != v || n < 0 {
		return 0, p.errorf("expected non-negative integer, got %g", v)
	}
	return n, nil
}

func (p *refParser) parseDuration() (time.Duration, error) {
	if p.cur().kind != tokNumber {
		return 0, p.errorf("expected duration, got %q", p.cur().text)
	}
	text := p.next().text
	d, err := time.ParseDuration(text)
	if err != nil {
		return 0, p.errorf("bad duration %q: %v", text, err)
	}
	if d <= 0 {
		return 0, p.errorf("duration must be positive, got %v", d)
	}
	return d, nil
}

func refIsReserved(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
		"AND", "OR", "NOT", "BETWEEN", "AS", "ASC", "DESC",
		"WITHIN", "ERROR", "TIME", "CONFIDENCE":
		return true
	}
	return false
}
