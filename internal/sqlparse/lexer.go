// Package sqlparse implements the SQL front-end of SciBORQ: a lexer and
// parser for the query subset the paper's workload needs (single-table
// aggregates, cone search, boolean predicates, GROUP BY / ORDER BY /
// LIMIT) plus the bounded-query extensions of §3.2:
//
//	... WITHIN ERROR 0.05 CONFIDENCE 0.95   -- quality bound
//	... WITHIN TIME 5ms                     -- runtime bound
//
// Every request is parsed exactly once, so the front end is built to be
// cheap: the lexer is a hand-rolled byte scanner that produces tokens on
// demand — token text is a slice of the input, never a copy —
// classifying bytes through precomputed 256-entry tables and
// recognising keywords through a length-bucketed table with ASCII case
// folding, so lexing performs no heap allocation at all. The parser pulls tokens through a two-token
// window and recycles its state through a sync.Pool, keeping a steady-
// state parse allocation down to the AST itself.
package sqlparse

import (
	"fmt"
	"unicode"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString // single-quoted literal
	tokSymbol // punctuation and operators
)

// kw identifies a recognised keyword; kwNone marks a plain identifier.
// The reserved grammar keywords form a contiguous block so isReserved is
// a range test; aggregate names and the cone UDF are recognised but not
// reserved (they remain usable as column references).
type kw uint8

const (
	kwNone kw = iota
	// Reserved grammar keywords (kwSelect..kwConfidence).
	kwSelect
	kwFrom
	kwWhere
	kwGroup
	kwBy
	kwOrder
	kwLimit
	kwAnd
	kwOr
	kwNot
	kwBetween
	kwAs
	kwAsc
	kwDesc
	kwWithin
	kwError
	kwTime
	kwConfidence
	// Recognised but not reserved.
	kwCount
	kwSum
	kwAvg
	kwMin
	kwMax
	kwStdDev
	kwCone // fGetNearbyObjEq
)

// kwNames maps keyword ids to their canonical (upper-case) spelling for
// error messages and the keyword table.
var kwNames = [...]string{
	kwSelect: "SELECT", kwFrom: "FROM", kwWhere: "WHERE", kwGroup: "GROUP",
	kwBy: "BY", kwOrder: "ORDER", kwLimit: "LIMIT", kwAnd: "AND",
	kwOr: "OR", kwNot: "NOT", kwBetween: "BETWEEN", kwAs: "AS",
	kwAsc: "ASC", kwDesc: "DESC", kwWithin: "WITHIN", kwError: "ERROR",
	kwTime: "TIME", kwConfidence: "CONFIDENCE", kwCount: "COUNT",
	kwSum: "SUM", kwAvg: "AVG", kwMin: "MIN", kwMax: "MAX",
	kwStdDev: "STDDEV", kwCone: "FGETNEARBYOBJEQ",
}

type token struct {
	kind tokKind
	kw   kw     // keyword id when kind == tokIdent; kwNone otherwise
	text string // a slice of the input; identifiers kept verbatim
	pos  int    // byte offset in the input, for error messages
}

// Byte-class table. The scanner is byte-oriented with Latin-1 semantics:
// classes are computed from the unicode predicates applied to rune(b)
// for each single byte b, which reproduces the historical behaviour of
// calling unicode.IsSpace/IsLetter/IsDigit on one input byte at a time
// (so e.g. 0xA0 is space and 0xB5 'µ' is an identifier letter).
const (
	clsSpace = 1 << iota
	clsLetter
	clsDigit
	clsIdentCont // letter | digit | '_' | '.'
	clsSymbol    // one of ( ) , * = + - /
)

var byteClass [256]uint8

// upperTab folds ASCII lower-case to upper-case and leaves every other
// byte unchanged. For tokens this lexer can produce, ASCII folding is
// exactly equivalent to the strings.EqualFold/strings.ToUpper matching
// of the reference parser: the only non-ASCII runes that case-fold into
// ASCII (U+017F 'ſ', U+0131 'ı', U+212A 'K') all contain a continuation
// byte that is not letter-class, so they can never survive inside one
// identifier token.
var upperTab [256]byte

// kwEntry is one keyword in its length bucket, spelled upper-case.
type kwEntry struct {
	name string
	id   kw
}

// kwBuckets holds keywords bucketed by byte length, giving O(1)
// recognition: an identifier probes only the (tiny) bucket of its own
// length, comparing bytes through upperTab.
var kwBuckets [16][]kwEntry

func init() {
	for b := 0; b < 256; b++ {
		r := rune(b)
		var c uint8
		if unicode.IsSpace(r) {
			c |= clsSpace
		}
		if unicode.IsLetter(r) {
			c |= clsLetter
		}
		if unicode.IsDigit(r) {
			c |= clsDigit
		}
		if c&(clsLetter|clsDigit) != 0 || b == '_' || b == '.' {
			c |= clsIdentCont
		}
		switch b {
		case '(', ')', ',', '*', '=', '+', '-', '/':
			c |= clsSymbol
		}
		byteClass[b] = c
		upperTab[b] = byte(b)
		if b >= 'a' && b <= 'z' {
			upperTab[b] = byte(b - 'a' + 'A')
		}
	}
	for id := kwSelect; id <= kwCone; id++ {
		name := kwNames[id]
		kwBuckets[len(name)] = append(kwBuckets[len(name)], kwEntry{name: name, id: id})
	}
}

// keywordOf resolves an identifier to its keyword id (kwNone if plain).
func keywordOf(s string) kw {
	if len(s) >= len(kwBuckets) {
		return kwNone
	}
	for _, e := range kwBuckets[len(s)] {
		if asciiFoldEq(s, e.name) {
			return e.id
		}
	}
	return kwNone
}

// asciiFoldEq reports s == upper under ASCII case folding; upper must be
// upper-case ASCII and the same length as s.
func asciiFoldEq(s, upper string) bool {
	for i := 0; i < len(s); i++ {
		if upperTab[s[i]] != upper[i] {
			return false
		}
	}
	return true
}

// lexer scans tokens on demand from its frontier offset. It allocates
// nothing: token text aliases the input string. On a lexical error the
// frontier stays on the offending byte, so re-scanning after a parser
// backtrack reproduces the same error deterministically.
type lexer struct {
	input string
	off   int
}

// next scans and returns one token, advancing the frontier.
func (lx *lexer) next() (token, error) {
	input := lx.input
	n := len(input)
	i := lx.off
	var c byte
	for {
		for i < n && byteClass[input[i]]&clsSpace != 0 {
			i++
		}
		if i >= n {
			lx.off = n
			return token{kind: tokEOF, pos: n}, nil
		}
		c = input[i]
		if c != ';' {
			break
		}
		i++ // trailing semicolons are tolerated
	}
	switch {
	case c == '\'':
		j := i + 1
		for j < n && input[j] != '\'' {
			j++
		}
		if j >= n {
			lx.off = i
			return token{}, fmt.Errorf("sqlparse: unterminated string at offset %d", i)
		}
		lx.off = j + 1
		return token{kind: tokString, text: input[i+1 : j], pos: i}, nil
	case byteClass[c]&clsDigit != 0 || (c == '.' && i+1 < n && byteClass[input[i+1]]&clsDigit != 0):
		j := i
		seenDot, seenExp := false, false
		for j < n {
			d := input[j]
			if byteClass[d]&clsDigit != 0 {
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
		// Duration suffixes (5ms, 2s, 100us) lex as one number token
		// with the unit attached; the parser splits them.
		for j < n && byteClass[input[j]]&clsLetter != 0 {
			j++
		}
		lx.off = j
		return token{kind: tokNumber, text: input[i:j], pos: i}, nil
	case byteClass[c]&clsLetter != 0 || c == '_':
		j := i
		for j < n && byteClass[input[j]]&clsIdentCont != 0 {
			j++
		}
		lx.off = j
		text := input[i:j]
		return token{kind: tokIdent, kw: keywordOf(text), text: text, pos: i}, nil
	case byteClass[c]&clsSymbol != 0:
		lx.off = i + 1
		return token{kind: tokSymbol, text: input[i : i+1], pos: i}, nil
	case c == '<':
		if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
			lx.off = i + 2
			return token{kind: tokSymbol, text: input[i : i+2], pos: i}, nil
		}
		lx.off = i + 1
		return token{kind: tokSymbol, text: input[i : i+1], pos: i}, nil
	case c == '>':
		if i+1 < n && input[i+1] == '=' {
			lx.off = i + 2
			return token{kind: tokSymbol, text: input[i : i+2], pos: i}, nil
		}
		lx.off = i + 1
		return token{kind: tokSymbol, text: input[i : i+1], pos: i}, nil
	default:
		lx.off = i
		return token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", rune(c), i)
	}
}

// lex scans the whole input into a token slice (the historical API; kept
// for tests and tooling — production parsing pulls tokens on demand).
func lex(input string) ([]token, error) {
	var toks []token
	lx := lexer{input: input}
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
