// Package jsonx is the one JSON lexer under cescd's hand-written codecs
// (the NDJSON tick decoder and the client's verdicts and diagnostics
// decoders), and the one JSON string and float writer of its
// hand-appended bodies, so the quoting rules of both directions live in
// this file. Reading follows encoding/json: the same grammar and
// whitespace, the same nesting bound, and the same unquoting, in which
// each byte of invalid UTF-8 and each unpaired surrogate escape becomes
// U+FFFD and a control byte is an error. Writing follows json.Marshal.
package jsonx

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds the nesting of objects and arrays, as encoding/json
// bounds it.
const maxDepth = 10000

// Lexer reads JSON tokens from Data at Pos. Every method first skips
// the whitespace before its token.
type Lexer struct {
	Data    []byte
	Pos     int
	scratch []byte // an escaped or non-ASCII string's unquoted bytes
}

// Reset points the lexer at the start of data, keeping its scratch.
func (l *Lexer) Reset(data []byte) { l.Data, l.Pos = data, 0 }

// Errorf returns an error citing the lexer's offset.
func (l *Lexer) Errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{l.Pos}, args...)...)
}

// Space skips whitespace.
func (l *Lexer) Space() { l.Pos = Space(l.Data, l.Pos) }

// Space returns the index of the first byte of b from i on that is not
// whitespace, or len(b).
func Space(b []byte, i int) int {
	for i < len(b) {
		if c := b[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return i
		}
		i++
	}
	return i
}

// Peek skips whitespace and returns the next byte (0 at the end).
func (l *Lexer) Peek() byte {
	l.Space()
	if l.Pos < len(l.Data) {
		return l.Data[l.Pos]
	}
	return 0
}

// Expect consumes the byte c.
func (l *Lexer) Expect(c byte) error {
	if l.Peek() != c {
		return l.Errorf("want %q", c)
	}
	l.Pos++
	return nil
}

// Literal consumes lit (null, true or false) if it is next. What may
// follow it is the caller's grammar to check, as encoding/json checks
// it: a delimiter inside a value, the next value at the top of a stream.
func (l *Lexer) Literal(lit string) bool {
	if end := Space(l.Data, l.Pos) + len(lit); end <= len(l.Data) && string(l.Data[end-len(lit):end]) == lit {
		l.Pos = end
		return true
	}
	return false
}

// Null consumes a null literal if one is next.
func (l *Lexer) Null() bool { return l.Literal("null") }

// Bool consumes true or false.
func (l *Lexer) Bool() (bool, error) {
	switch {
	case l.Literal("true"):
		return true, nil
	case l.Literal("false"):
		return false, nil
	}
	return false, l.Errorf("want a boolean")
}

// NextKey walks the members of an object whose brace is consumed:
// before the first member pass *more = false; each call consumes the
// separator, the key and its colon and returns the unquoted key (valid
// until the next string), or done at the closing brace.
func (l *Lexer) NextKey(more *bool) (key []byte, done bool, err error) {
	b := l.Data
	i := Space(b, l.Pos)
	switch {
	case i < len(b) && b[i] == '}':
		l.Pos = i + 1
		return nil, true, nil
	case *more:
		if i == len(b) || b[i] != ',' {
			l.Pos = i
			return nil, false, l.Errorf("want ',' or '}'")
		}
		i = Space(b, i+1)
	}
	*more = true
	if i == len(b) || b[i] != '"' {
		l.Pos = i
		return nil, false, l.Errorf("want a key")
	}
	if key, i, err = l.StrAt(i); err != nil {
		return nil, false, err
	}
	if i = Space(b, i); i == len(b) || b[i] != ':' {
		l.Pos = i
		return nil, false, l.Errorf("want ':'")
	}
	l.Pos = i + 1
	return key, false, nil
}

// NextElem consumes the separator before an array element (more says
// one came before), or the closing bracket.
func (l *Lexer) NextElem(more bool) (done bool, err error) {
	b := l.Data
	i := Space(b, l.Pos)
	switch {
	case i < len(b) && b[i] == ']':
		l.Pos = i + 1
		return true, nil
	case more:
		if i == len(b) || b[i] != ',' {
			l.Pos = i
			return false, l.Errorf("want ',' or ']'")
		}
		i++
	}
	l.Pos = i
	return false, nil
}

// Number consumes one number literal and returns its bytes.
func (l *Lexer) Number() ([]byte, error) {
	l.Space()
	start, i, b := l.Pos, l.Pos, l.Data
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, l.Errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, l.Errorf("bad number")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, l.Errorf("bad number")
		}
		i = digits(b, i)
	}
	l.Pos = i
	return b[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// Str consumes a string literal and returns its unquoted bytes: a slice
// of Data when it holds no escape and only ASCII, else the lexer's
// scratch, valid until the next call.
func (l *Lexer) Str() (s []byte, err error) {
	if l.Peek() != '"' {
		return nil, l.Errorf("want a string")
	}
	s, l.Pos, err = l.StrAt(l.Pos)
	return s, err
}

// StrAt is Str for the string whose quote is at Data[i]; it returns the
// index after the closing quote and leaves Pos alone unless it fails.
func (l *Lexer) StrAt(i int) ([]byte, int, error) {
	b := l.Data
	start := i + 1
	for i = start; i < len(b) && !strStop[b[i]]; i++ {
	}
	if i < len(b) && b[i] == '"' {
		return b[start:i], i + 1, nil
	}
	return l.strSlow(start, i)
}

// strSlow finishes a string from Data[i] on, the first byte past its
// plain run from start.
func (l *Lexer) strSlow(start, i int) ([]byte, int, error) {
	b := l.Data
	out := append(l.scratch[:0], b[start:i]...)
	for {
		if i >= len(b) {
			l.Pos = i
			return nil, 0, l.Errorf("unterminated string")
		}
		c := b[i]
		switch {
		case c == '"':
			l.scratch = out
			return out, i + 1, nil
		case c < 0x20:
			l.Pos = i
			return nil, 0, l.Errorf("control byte in string")
		case c == '\\':
			if i+1 >= len(b) {
				l.Pos = i
				return nil, 0, l.Errorf("unterminated string")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					l.Pos = i
					return nil, 0, l.Errorf("bad \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						r2 = hex4(b[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				l.Pos = i
				return nil, 0, l.Errorf("bad escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// strStop marks the bytes that end a string's plain run: the quote,
// the backslash, control bytes and non-ASCII bytes.
var strStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf
	}
	return t
}()

// hex4 parses the four hex digits after a \u, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip consumes one value of any type, checking its syntax. depth is
// the number of objects and arrays open around it.
func (l *Lexer) Skip(depth int) error {
	switch l.Peek() {
	case '"':
		_, err := l.Str()
		return err
	case '{', '[':
		if depth >= maxDepth {
			return l.Errorf("value nested too deep")
		}
		obj := l.Data[l.Pos] == '{'
		l.Pos++
		for more := false; ; more = true {
			var done bool
			var err error
			if obj {
				_, done, err = l.NextKey(&more)
			} else {
				done, err = l.NextElem(more)
			}
			if err != nil || done {
				return err
			}
			if err := l.Skip(depth + 1); err != nil {
				return err
			}
		}
	case 't', 'f':
		_, err := l.Bool()
		return err
	case 'n':
		if l.Null() {
			return nil
		}
		return l.Errorf("bad literal")
	default:
		_, err := l.Number()
		return err
	}
}

// AppendFloat appends f in encoding/json's form: the shortest 'f'
// rendering, or 'e' below 1e-6 and from 1e21 on with a one-digit
// negative exponent unpadded. json.Marshal refuses NaN and ±Inf; this
// writes them as null.
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as json.Marshal quotes it: HTML-safe, so <, >
// and & become \u003c, \u003e and \u0026; control bytes take their
// short escape or \u00XX; U+2028 and U+2029 are escaped; each byte of
// invalid UTF-8 becomes \ufffd. Runs of plain bytes are copied whole.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendStrings appends a non-nil string slice as a JSON array.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}
