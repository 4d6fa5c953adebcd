package sqlparse

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/vec"
)

// Bounds carries the SciBORQ bounded-query clauses parsed from the
// WITHIN extensions; zero values mean "no bound requested".
type Bounds struct {
	// MaxRelError is the requested relative error ε (WITHIN ERROR ε).
	MaxRelError float64
	// Confidence is the requested confidence level (CONFIDENCE c),
	// defaulting to 0.95 when an error bound is present.
	Confidence float64
	// MaxTime is the requested runtime budget (WITHIN TIME d).
	MaxTime time.Duration
}

// HasErrorBound reports whether a quality bound was requested.
func (b Bounds) HasErrorBound() bool { return b.MaxRelError > 0 }

// HasTimeBound reports whether a runtime bound was requested.
func (b Bounds) HasTimeBound() bool { return b.MaxTime > 0 }

// Statement is a parsed SQL statement: the engine query plus bounds.
type Statement struct {
	Query  engine.Query
	Bounds Bounds
}

// Parse parses one SELECT statement.
func Parse(sql string) (*Statement, error) {
	st, _, err := parse(sql, nil)
	return st, err
}

// Params parses sql and returns the number of literal slots ParseBound
// fills: the plain numeric literals before the first LIMIT or WITHIN
// keyword, in token order. It is the parameter count of a wire prepared
// statement, and it fails exactly when Parse does.
func Params(sql string) (int, error) {
	_, n, err := parse(sql, nil)
	return n, err
}

// ParseBound re-parses sql substituting its i-th literal slot (see
// Params) with lits[i]. It is the binding half of wire prepared
// statements: given a prepared statement's SQL and fresh values for its
// slots, it produces exactly the Statement a direct Parse of the
// statement spelled with those values would — same control flow, same
// AST shape — without rendering any literal text. A list whose length
// differs from the slot count is refused.
func ParseBound(sql string, lits []float64) (*Statement, error) {
	st, n, err := parse(sql, lits)
	if err == nil && n != len(lits) {
		return nil, fmt.Errorf("sqlparse: statement has %d literal slots, got %d values", n, len(lits))
	}
	return st, err
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(sql string) *Statement {
	st, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return st
}

// parserPool recycles parser state across parses; a steady-state parse
// allocates only the statement's own AST.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// parse parses sql, substituting lits for its literal slots (none when
// lits is nil), and returns the statement with its slot count.
func parse(sql string, lits []float64) (*Statement, int, error) {
	p := parserPool.Get().(*parser)
	p.init(sql, lits)
	st, perr := p.parseSelect()
	// A lexical error wins over the parse error it provoked: the byte
	// scanner's message names the offending offset directly (and matches
	// the historical lex-then-parse pipeline, which surfaced lexical
	// errors before parsing began).
	lexErr := p.lexErr
	if lexErr == nil && perr == nil && p.tok.kind != tokEOF {
		perr = p.errorf("unexpected trailing input %q", p.tok.text)
		lexErr = p.lexErr // trailing scan may itself have failed
	}
	slots := p.litIdx
	p.release()
	if lexErr != nil {
		return nil, 0, lexErr
	}
	if perr != nil {
		return nil, 0, perr
	}
	return st, slots, nil
}

// parser is the recursive-descent statement parser over the on-demand
// lexer. It keeps a two-token window (tok + ahead) over the scan
// frontier; backtracking saves and restores the window plus the lexer
// offset in O(1) and re-scans the abandoned region on the next pull.
type parser struct {
	lx     lexer
	tok    token // current token
	ahead  token // single lookahead slot (filled lazily)
	nahead int   // 0 or 1 tokens buffered in ahead
	lexErr error

	// Literal slots (prepared-statement binding): parseNumber counts
	// each plain numeric literal in litIdx and, while lits has a value
	// for it, substitutes lits[litIdx]. litOn turns off at the first
	// LIMIT/WITHIN keyword: the parser validates those clauses' values
	// structurally (integer limits, (0,1) error bounds), so rebinding
	// them could turn an accepted statement into a rejected one.
	lits   []float64
	litIdx int
	litOn  bool
}

func (p *parser) init(sql string, lits []float64) {
	p.lx = lexer{input: sql}
	p.nahead = 0
	p.lexErr = nil
	p.lits = lits
	p.litIdx = 0
	p.litOn = true
	p.tok = p.pull()
}

func (p *parser) release() {
	p.lits = nil
	parserPool.Put(p)
}

// pull scans the next token, recording the first lexical error and
// returning an EOF sentinel for it (the error is re-raised by Parse).
func (p *parser) pull() token {
	t, err := p.lx.next()
	if err != nil {
		if p.lexErr == nil {
			p.lexErr = err
		}
		return token{kind: tokEOF, pos: len(p.lx.input)}
	}
	if t.kw == kwLimit || t.kw == kwWithin {
		// Literals at or beyond the first LIMIT/WITHIN are part of the
		// statement shape, not parameters; stop substituting.
		p.litOn = false
	}
	return t
}

func (p *parser) cur() token { return p.tok }

// advance moves the window one token forward.
func (p *parser) advance() {
	if p.nahead > 0 {
		p.tok = p.ahead
		p.nahead = 0
		return
	}
	p.tok = p.pull()
}

// take returns the current token and advances past it.
func (p *parser) take() token {
	t := p.tok
	p.advance()
	return t
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() token {
	if p.nahead == 0 {
		p.ahead = p.pull()
		p.nahead = 1
	}
	return p.ahead
}

// mark captures the full parser position for O(1) backtracking.
type mark struct {
	off    int
	tok    token
	ahead  token
	nahead int
	lexErr error
	litIdx int
	litOn  bool
}

func (p *parser) mark() mark {
	return mark{off: p.lx.off, tok: p.tok, ahead: p.ahead, nahead: p.nahead,
		lexErr: p.lexErr, litIdx: p.litIdx, litOn: p.litOn}
}

func (p *parser) reset(m mark) {
	p.lx.off = m.off
	p.tok = m.tok
	p.ahead = m.ahead
	p.nahead = m.nahead
	p.lexErr = m.lexErr
	p.litIdx = m.litIdx
	p.litOn = m.litOn
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near offset %d in %q)",
		fmt.Sprintf(format, args...), p.tok.pos, truncate(p.lx.input, 60))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) expectKeyword(id kw) error {
	if p.tok.kw != id {
		return p.errorf("expected %s, got %q", kwNames[id], p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if p.tok.kind != tokSymbol || p.tok.text != sym {
		return p.errorf("expected %q, got %q", sym, p.tok.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptKeyword(id kw) bool {
	if p.tok.kw == id {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.tok.kind == tokSymbol && p.tok.text == sym {
		p.advance()
		return true
	}
	return false
}

// parseSelect parses:
//
//	SELECT list FROM ident [WHERE pred] [GROUP BY ident]
//	[ORDER BY ident [ASC|DESC]] [LIMIT n]
//	[WITHIN ERROR num [CONFIDENCE num]] [WITHIN TIME dur]
func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword(kwSelect); err != nil {
		return nil, err
	}
	var st Statement
	if err := p.parseSelectList(&st.Query); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(kwFrom); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected table name, got %q", p.tok.text)
	}
	st.Query.Table = p.take().text

	if p.acceptKeyword(kwWhere) {
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Query.Where = pred
	}
	if p.acceptKeyword(kwGroup) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected GROUP BY column, got %q", p.tok.text)
		}
		st.Query.GroupBy = p.take().text
	}
	if p.acceptKeyword(kwOrder) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected ORDER BY column, got %q", p.tok.text)
		}
		st.Query.OrderBy = p.take().text
		if p.acceptKeyword(kwDesc) {
			st.Query.Desc = true
		} else {
			p.acceptKeyword(kwAsc)
		}
	}
	if p.acceptKeyword(kwLimit) {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			// The engine reads Limit 0 as "no limit"; refuse the bound
			// rather than silently ignore it.
			return nil, p.errorf("LIMIT must be positive, got 0")
		}
		st.Query.Limit = n
	}
	for p.acceptKeyword(kwWithin) {
		switch {
		case p.acceptKeyword(kwError):
			v, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			if v <= 0 || v >= 1 {
				return nil, p.errorf("WITHIN ERROR wants a relative error in (0,1), got %g", v)
			}
			st.Bounds.MaxRelError = v
			st.Bounds.Confidence = 0.95
			if p.acceptKeyword(kwConfidence) {
				c, err := p.parseNumber()
				if err != nil {
					return nil, err
				}
				if c <= 0 || c >= 1 {
					return nil, p.errorf("CONFIDENCE wants a level in (0,1), got %g", c)
				}
				st.Bounds.Confidence = c
			}
		case p.acceptKeyword(kwTime):
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

// parseSelectList fills either Aggs or Select.
func (p *parser) parseSelectList(q *engine.Query) error {
	if p.acceptSymbol("*") {
		q.Select = []string{"*"}
		return nil
	}
	for {
		if fn, ok := aggKeyword(p.tok); ok {
			spec, err := p.parseAgg(fn)
			if err != nil {
				return err
			}
			q.Aggs = append(q.Aggs, spec)
		} else if p.tok.kind == tokIdent {
			q.Select = append(q.Select, p.take().text)
		} else {
			return p.errorf("expected select item, got %q", p.tok.text)
		}
		if !p.acceptSymbol(",") {
			return nil
		}
	}
}

// aggKeyword maps a token to an aggregate function.
func aggKeyword(t token) (engine.AggFunc, bool) {
	switch t.kw {
	case kwCount:
		return engine.Count, true
	case kwSum:
		return engine.Sum, true
	case kwAvg:
		return engine.Avg, true
	case kwMin:
		return engine.Min, true
	case kwMax:
		return engine.Max, true
	case kwStdDev:
		return engine.StdDev, true
	}
	return 0, false
}

// parseAgg parses FN(arg) [AS alias].
func (p *parser) parseAgg(fn engine.AggFunc) (engine.AggSpec, error) {
	p.advance() // consume function name
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
	if p.acceptKeyword(kwAs) {
		if p.tok.kind != tokIdent {
			return spec, p.errorf("expected alias after AS, got %q", p.tok.text)
		}
		spec.Alias = p.take().text
	}
	return spec, nil
}

// Scalar operator binding powers for the Pratt loop: additive 10,
// multiplicative 20. Left associativity comes from recursing at bp+1.
func binOpOf(t token) (op expr.ArithOp, bp int, ok bool) {
	if t.kind != tokSymbol || len(t.text) != 1 {
		return 0, 0, false
	}
	switch t.text[0] {
	case '+':
		return expr.Add, 10, true
	case '-':
		return expr.Sub, 10, true
	case '*':
		return expr.Mul, 20, true
	case '/':
		return expr.Div, 20, true
	}
	return 0, 0, false
}

// parseScalar parses an arithmetic expression by precedence climbing —
// a single Pratt loop replacing the historical parseScalar/parseTerm
// nesting; the trees it builds are identical (left-associative, with
// '*' and '/' binding tighter than '+' and '-').
func (p *parser) parseScalar() (expr.Scalar, error) {
	return p.parseBinary(0)
}

func (p *parser) parseBinary(minBP int) (expr.Scalar, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		op, bp, ok := binOpOf(p.tok)
		if !ok || bp < minBP {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(bp + 1)
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, L: left, R: right}
	}
}

// parseFactor parses number | ident | '(' scalar ')' | '-' factor.
func (p *parser) parseFactor() (expr.Scalar, error) {
	switch {
	case p.tok.kind == tokNumber:
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return expr.Const{V: v}, nil
	case p.tok.kind == tokIdent && !isReserved(p.tok):
		return expr.ColRef{Name: p.take().text}, nil
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
	return nil, p.errorf("expected scalar expression, got %q", p.tok.text)
}

// parseOr parses and-expr (OR and-expr)*.
func (p *parser) parseOr() (expr.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword(kwOr) {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Or{L: left, R: right}
	}
	return left, nil
}

// parseAnd parses unary (AND unary)*.
func (p *parser) parseAnd() (expr.Predicate, error) {
	left, err := p.parseUnaryPred()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword(kwAnd) {
		right, err := p.parseUnaryPred()
		if err != nil {
			return nil, err
		}
		left = expr.And{L: left, R: right}
	}
	return left, nil
}

// parseUnaryPred parses NOT pred | '(' pred ')' | primary predicate.
func (p *parser) parseUnaryPred() (expr.Predicate, error) {
	if p.acceptKeyword(kwNot) {
		inner, err := p.parseUnaryPred()
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	// Lookahead for a parenthesised predicate vs a parenthesised scalar:
	// try predicate first, backtrack to scalar comparison on failure.
	if p.tok.kind == tokSymbol && p.tok.text == "(" {
		save := p.mark()
		p.advance()
		inner, err := p.parseOr()
		if err == nil && p.acceptSymbol(")") {
			return inner, nil
		}
		p.reset(save)
	}
	return p.parsePrimaryPred()
}

// parsePrimaryPred parses cone search, BETWEEN, string equality, and
// scalar comparisons.
func (p *parser) parsePrimaryPred() (expr.Predicate, error) {
	if p.tok.kw == kwCone {
		return p.parseCone()
	}
	left, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword(kwBetween) {
		lo, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword(kwAnd); err != nil {
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
	// String comparison: only ident = 'str' or ident <> 'str'.
	if p.tok.kind == tokString {
		ref, ok := left.(expr.ColRef)
		if !ok {
			return nil, p.errorf("string comparison requires a plain column on the left")
		}
		if op != vec.Eq && op != vec.Ne {
			return nil, p.errorf("strings support only = and <>")
		}
		return expr.StrEq{Col: ref.Name, Value: p.take().text, Neg: op == vec.Ne}, nil
	}
	rhs, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, Left: left, Right: rhs}, nil
}

// parseCone parses fGetNearbyObjEq(ra, dec, radius), binding to the
// conventional SkyServer position columns ra/dec.
func (p *parser) parseCone() (expr.Predicate, error) {
	p.advance() // consume function name
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

// parseCmpOp parses a comparison operator token.
func (p *parser) parseCmpOp() (vec.CmpOp, error) {
	if p.tok.kind != tokSymbol {
		return 0, p.errorf("expected comparison operator, got %q", p.tok.text)
	}
	var op vec.CmpOp
	switch p.tok.text {
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
		return 0, p.errorf("unknown operator %q", p.tok.text)
	}
	p.advance()
	return op, nil
}

// parseNumber parses a plain numeric literal (with optional leading -).
// Before the first LIMIT/WITHIN the literal is a slot: its value is
// replaced by the next bound literal, if any; the sign stays with the
// statement (the '-' token).
func (p *parser) parseNumber() (float64, error) {
	neg := false
	// Signed literal: a '-' counts only when the second window token is
	// a number (a dangling '-' is rejected either way).
	if p.tok.kind == tokSymbol && p.tok.text == "-" && p.peek().kind == tokNumber {
		p.advance()
		neg = true
	}
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected number, got %q", p.tok.text)
	}
	slot := p.litOn
	t := p.take()
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errorf("bad number %q: %v", t.text, err)
	}
	if slot {
		if p.litIdx < len(p.lits) {
			v = p.lits[p.litIdx]
		}
		p.litIdx++
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseInt parses a non-negative integer literal.
func (p *parser) parseInt() (int, error) {
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

// parseDuration parses a Go-style duration literal (5ms, 2s, 100us, 1m).
func (p *parser) parseDuration() (time.Duration, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected duration, got %q", p.tok.text)
	}
	text := p.take().text
	d, err := time.ParseDuration(text)
	if err != nil {
		return 0, p.errorf("bad duration %q: %v", text, err)
	}
	if d <= 0 {
		return 0, p.errorf("duration must be positive, got %v", d)
	}
	return d, nil
}

// isReserved reports whether a token is a grammar keyword and so cannot
// be a column reference inside expressions. Aggregate names and the
// cone UDF are recognised but not reserved.
func isReserved(t token) bool {
	return t.kw >= kwSelect && t.kw <= kwConfidence
}
