package sqlparse

import (
	"encoding/binary"
	"strconv"
)

// Fingerprint bytes: tokens are separated by fpSep; a parameterised
// numeric literal collapses to fpNum (its value moves to the literal
// list); a string literal is encoded as fpStr + uvarint(byte length) +
// the literal bytes verbatim. String literals are the one token kind
// that can carry arbitrary bytes — including these control bytes — so
// their content is length-delimited rather than sentinel-delimited,
// keeping the whole encoding prefix-free: a literal embedding
// fpSep/fpNum/fpStr cannot re-parse as token boundaries and forge the
// fingerprint of a different statement. Every other token kind contains
// no byte below 0x20 (the lexer skips space-class control bytes and
// errors on the rest outside strings), so fpSep unambiguously delimits
// tokens and fingerprint equality implies token-sequence equality
// (modulo parameterised numeric literal values).
const (
	fpSep = 0x1F
	fpNum = 0x01
	fpStr = 0x02
)

// Fingerprint appends the statement-shape fingerprint of sql to shape
// and the values of its parameterisable numeric literals to lits,
// returning the extended slices. Two statements with equal fingerprints
// differ at most in numeric literal values, so one is the other with
// its literals rebound: ParseBound(template, lits) reproduces exactly
// what Parse(sql) would build. Wire prepared statements rely on it —
// Prepare counts a statement's parameters as its literal list, and
// Execute binds fresh values through ParseBound. ok is false when sql
// cannot be fingerprinted (a lexical error).
//
// Parameterisation covers plain numeric literals (those the parser
// reads via ParseFloat) up to the first LIMIT or WITHIN keyword:
// literals in LIMIT and the WITHIN bound clauses stay part of the shape
// because the parser validates their values structurally (integer
// limits, (0,1) error bounds), so substituting them could turn an
// accepted shape into a rejected statement. A '-' sign is shape, not
// value: the magnitude is the literal, matching parseNumber.
//
// Fingerprint performs no heap allocation beyond growing the two
// caller-owned slices; with pre-sized scratch it allocates nothing.
func Fingerprint(shape []byte, lits []float64, sql string) ([]byte, []float64, bool) {
	lx := lexer{input: sql}
	paramOn := true
	for {
		t, err := lx.next()
		if err != nil {
			return shape, lits, false
		}
		if t.kind == tokEOF {
			return shape, lits, true
		}
		shape = append(shape, fpSep)
		switch t.kind {
		case tokNumber:
			if paramOn {
				if v, perr := strconv.ParseFloat(t.text, 64); perr == nil {
					shape = append(shape, fpNum)
					lits = append(lits, v)
					continue
				}
			}
			// Duration-suffixed or unparseable numbers are shape bytes;
			// the parser treats their text as part of the grammar.
			shape = append(shape, t.text...)
		case tokString:
			shape = append(shape, fpStr)
			shape = binary.AppendUvarint(shape, uint64(len(t.text)))
			shape = append(shape, t.text...)
		default:
			if t.kw == kwLimit || t.kw == kwWithin {
				// Mirrors the parser's literal-replay window: from here
				// on, numbers are validated shape, not parameters.
				paramOn = false
			}
			shape = append(shape, t.text...)
		}
	}
}
