package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeVerdicts decodes a GET /sessions/{id}/verdicts body into exactly
// the value json.Unmarshal makes of it, in one pass over the bytes with
// a few allocations per body instead of a few per value: names are
// interned per body, and the string, state, diagnostic and int slices
// are carved from per-body slabs. Whitespace and unknown fields are
// skipped, so indented bodies decode too. Anything it cannot decode
// exactly as encoding/json would — a key that matches a field only
// case-insensitively, a field given twice, null for a value that is not
// a slice or map, a number out of range of its field — is an error,
// never a guess.
func DecodeVerdicts(data []byte) (VerdictsJSON, error) {
	d := newBodyDecoder(data)
	var v VerdictsJSON
	var mons slab[MonitorVerdictJSON]
	err := d.body(&v.Session, &v.Mode, func() (err error) {
		v.Monitors, err = list(d, &mons, (*bodyDecoder).monitorVerdict)
		return err
	})
	return v, err
}

// DecodeDiagnostics decodes a GET /sessions/{id}/diagnostics body as
// DecodeVerdicts decodes a verdicts body.
func DecodeDiagnostics(data []byte) (DiagnosticsJSON, error) {
	d := newBodyDecoder(data)
	var v DiagnosticsJSON
	var mons slab[MonitorDiagnosticsJSON]
	err := d.body(&v.Session, &v.Mode, func() (err error) {
		v.Monitors, err = list(d, &mons, (*bodyDecoder).monitorDiagnostics)
		return err
	})
	return v, err
}

// bodyDecoder is the state of one decode: the input, the intern table
// and the slabs.
type bodyDecoder struct {
	data []byte
	pos  int

	names   map[string]string
	scratch []byte // an escaped string's unquoted bytes

	strs   slab[string]
	states slab[StateJSON]
	diags  slab[DiagnosticJSON]
	ints   slab[int]
}

func newBodyDecoder(data []byte) *bodyDecoder {
	return &bodyDecoder{data: data, names: make(map[string]string, 64)}
}

// slab hands out contiguous runs of T from shared chunks. A run is built
// by push calls from one start; a chunk that fills mid-run moves the run
// into a fresh chunk twice the size. Runs are cut with a full slice
// expression, so appending to one never writes into the next.
type slab[T any] struct{ buf []T }

func (s *slab[T]) push(start int, x T) int {
	if len(s.buf) == cap(s.buf) {
		n := len(s.buf) - start
		grown := make([]T, n, max(2*cap(s.buf), 2*n, 32))
		copy(grown, s.buf[start:])
		s.buf, start = grown, 0
	}
	s.buf = append(s.buf, x)
	return start
}

// run returns the run begun at start: non-nil even when empty, as
// json.Unmarshal makes of [].
func (s *slab[T]) run(start int) []T {
	if len(s.buf) == start {
		return []T{}
	}
	return s.buf[start:len(s.buf):len(s.buf)]
}

var (
	errFoldedKey    = errors.New("key matches a field only case-insensitively")
	errDuplicateKey = errors.New("duplicate key")
	errNull         = errors.New("null for a value that cannot be null")
)

// maxSkipDepth bounds the nesting of a skipped unknown value, as
// encoding/json bounds any value's.
const maxSkipDepth = 10000

func (d *bodyDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.pos}, args...)...)
}

func (d *bodyDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *bodyDecoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *bodyDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.pos++
	return nil
}

// null consumes a null literal if one is next.
func (d *bodyDecoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// nextKey walks the members of one object whose brace is consumed:
// before the first member pass *more = false; each call consumes the
// separator, the key and its colon and reports the key, or done at the
// closing brace.
func (d *bodyDecoder) nextKey(more *bool) (key []byte, done bool, err error) {
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return nil, true, nil
	case *more:
		if c != ',' {
			return nil, false, d.errorf("want ',' or '}'")
		}
		d.pos++
	}
	*more = true
	if d.peek() != '"' {
		return nil, false, d.errorf("want a key")
	}
	if key, err = d.rawString(); err != nil {
		return nil, false, err
	}
	return key, false, d.expect(':')
}

// markField marks member bit of an object seen, refusing it twice.
func markField(seen *uint32, bit uint) error {
	if *seen&(1<<bit) != 0 {
		return errDuplicateKey
	}
	*seen |= 1 << bit
	return nil
}

// unknown skips the value of a key no field matches exactly, refusing
// one encoding/json would fold onto a field.
func (d *bodyDecoder) unknown(key []byte, fields ...string) error {
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return fmt.Errorf("%w: %q", errFoldedKey, key)
		}
	}
	return d.skip(0)
}

// body decodes the envelope both bodies share, with monitors decoding
// the monitors value.
func (d *bodyDecoder) body(session, mode *string, monitors func() error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	more := false
	for {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			break
		}
		switch string(key) {
		case "session":
			err = d.fieldString(&seen, 0, session)
		case "mode":
			err = d.fieldString(&seen, 1, mode)
		case "monitors":
			if err = markField(&seen, 2); err == nil {
				err = monitors()
			}
		default:
			err = d.unknown(key, "session", "mode", "monitors")
		}
		if err != nil {
			return err
		}
	}
	if d.peek() != 0 {
		return d.errorf("data after the body")
	}
	return nil
}

func (d *bodyDecoder) monitorDiagnostics(m *MonitorDiagnosticsJSON) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		switch string(key) {
		case "spec":
			err = d.fieldString(&seen, 0, &m.Spec)
		case "violations":
			err = d.fieldInt(&seen, 1, &m.Violations)
		case "diagnostics":
			if err = markField(&seen, 2); err == nil {
				m.Diagnostics, err = list(d, &d.diags, (*bodyDecoder).diagnostic)
			}
		default:
			err = d.unknown(key, "spec", "violations", "diagnostics")
		}
		if err != nil {
			return err
		}
	}
}

// nextElem consumes the separator before an array element, or the
// closing bracket.
func (d *bodyDecoder) nextElem(more bool) (done bool, err error) {
	c := d.peek()
	if c == ']' {
		d.pos++
		return true, nil
	}
	if more {
		if c != ',' {
			return false, d.errorf("want ',' or ']'")
		}
		d.pos++
	}
	return false, nil
}

// list decodes an array, or null as nil, into a run of s, decoding each
// element in place with elem. No element decoder appends to the slab
// of its own type, so the element's address holds while it decodes.
func list[T any](d *bodyDecoder, s *slab[T], elem func(*bodyDecoder, *T) error) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	start := len(s.buf)
	var zero T
	for more := false; ; more = true {
		if done, err := d.nextElem(more); err != nil {
			return nil, err
		} else if done {
			return s.run(start), nil
		}
		start = s.push(start, zero)
		if err := elem(d, &s.buf[len(s.buf)-1]); err != nil {
			return nil, err
		}
	}
}

func (d *bodyDecoder) monitorVerdict(m *MonitorVerdictJSON) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		switch string(key) {
		case "spec":
			err = d.fieldString(&seen, 0, &m.Spec)
		case "steps":
			err = d.fieldInt(&seen, 1, &m.Steps)
		case "accepts":
			err = d.fieldInt(&seen, 2, &m.Accepts)
		case "violations":
			err = d.fieldInt(&seen, 3, &m.Violations)
		case "fallbacks":
			err = d.fieldInt(&seen, 4, &m.Fallbacks)
		case "last_accept_tick":
			err = d.fieldInt(&seen, 5, &m.LastAcceptTick)
		case "accept_ticks":
			if err = markField(&seen, 6); err == nil {
				m.AcceptTicks, err = list(d, &d.ints, (*bodyDecoder).intInto)
			}
		case "coverage":
			if err = markField(&seen, 7); err == nil {
				err = d.coverage(&m.Coverage)
			}
		case "diagnostics":
			if err = markField(&seen, 8); err == nil {
				m.Diagnostics, err = list(d, &d.diags, (*bodyDecoder).diagnostic)
			}
		case "quarantined":
			if err = markField(&seen, 9); err == nil {
				m.Quarantined, err = d.boolean()
			}
		case "quarantine_reason":
			err = d.fieldString(&seen, 10, &m.QuarantineReason)
		default:
			err = d.unknown(key, "spec", "steps", "accepts", "violations", "fallbacks",
				"last_accept_tick", "accept_ticks", "coverage", "diagnostics",
				"quarantined", "quarantine_reason")
		}
		if err != nil {
			return err
		}
	}
}

func (d *bodyDecoder) coverage(c *CoverageJSON) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		switch string(key) {
		case "state":
			if err = markField(&seen, 0); err == nil {
				c.State, err = d.float()
			}
		case "transition":
			if err = markField(&seen, 1); err == nil {
				c.Transition, err = d.float()
			}
		case "hard_resets":
			if err = markField(&seen, 2); err == nil {
				c.HardResets, err = d.uint()
			}
		case "uncovered":
			if err = markField(&seen, 3); err == nil {
				c.Uncovered, err = list(d, &d.strs, (*bodyDecoder).str)
			}
		default:
			err = d.unknown(key, "state", "transition", "hard_resets", "uncovered")
		}
		if err != nil {
			return err
		}
	}
}

func (d *bodyDecoder) diagnostic(dj *DiagnosticJSON) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		switch string(key) {
		case "tick":
			err = d.fieldInt(&seen, 0, &dj.Tick)
		case "monitor":
			err = d.fieldString(&seen, 1, &dj.Monitor)
		case "grid_line":
			err = d.fieldInt(&seen, 2, &dj.GridLine)
		case "from_state":
			err = d.fieldInt(&seen, 3, &dj.FromState)
		case "guard":
			err = d.fieldString(&seen, 4, &dj.Guard)
		case "guards":
			if err = markField(&seen, 5); err == nil {
				dj.Guards, err = list(d, &d.strs, (*bodyDecoder).str)
			}
		case "valuation":
			if err = markField(&seen, 6); err == nil {
				dj.Valuation, err = d.uint()
			}
		case "input":
			if err = markField(&seen, 7); err == nil {
				err = d.state(&dj.Input)
			}
		case "recent":
			if err = markField(&seen, 8); err == nil {
				dj.Recent, err = list(d, &d.states, (*bodyDecoder).state)
			}
		case "scoreboard":
			if err = markField(&seen, 9); err == nil {
				dj.Scoreboard, err = list(d, &d.strs, (*bodyDecoder).str)
			}
		default:
			err = d.unknown(key, "tick", "monitor", "grid_line", "from_state", "guard",
				"guards", "valuation", "input", "recent", "scoreboard")
		}
		if err != nil {
			return err
		}
	}
}

func (d *bodyDecoder) state(st *StateJSON) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen uint32
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		switch string(key) {
		case "events":
			if err = markField(&seen, 0); err == nil {
				st.Events, err = list(d, &d.strs, (*bodyDecoder).str)
			}
		case "props":
			if err = markField(&seen, 1); err == nil {
				st.Props, err = d.props()
			}
		default:
			err = d.unknown(key, "events", "props")
		}
		if err != nil {
			return err
		}
	}
}

// props decodes a props map. A repeated key is assigned again, last
// value winning, exactly as encoding/json fills a map.
func (d *bodyDecoder) props() (map[string]bool, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	m := map[string]bool{}
	for more := false; ; {
		key, done, err := d.nextKey(&more)
		if err != nil {
			return nil, err
		}
		if done {
			return m, nil
		}
		k := d.intern(key)
		if m[k], err = d.boolean(); err != nil {
			return nil, err
		}
	}
}

func (d *bodyDecoder) fieldString(seen *uint32, bit uint, dst *string) error {
	if err := markField(seen, bit); err != nil {
		return err
	}
	return d.str(dst)
}

func (d *bodyDecoder) fieldInt(seen *uint32, bit uint, dst *int) error {
	if err := markField(seen, bit); err != nil {
		return err
	}
	return d.intInto(dst)
}

func (d *bodyDecoder) boolean() (bool, error) {
	switch d.peek() {
	case 't':
		if bytes.HasPrefix(d.data[d.pos:], []byte("true")) {
			d.pos += 4
			return true, nil
		}
	case 'f':
		if bytes.HasPrefix(d.data[d.pos:], []byte("false")) {
			d.pos += 5
			return false, nil
		}
	case 'n':
		if d.null() {
			return false, errNull
		}
	}
	return false, d.errorf("want a boolean")
}

// number consumes one JSON number literal and returns its bytes.
func (d *bodyDecoder) number() ([]byte, error) {
	if d.peek() == 'n' && d.null() {
		return nil, errNull
	}
	start, i, b := d.pos, d.pos, d.data
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	default:
		return nil, d.errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, d.errorf("bad number")
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, d.errorf("bad number")
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	d.pos = i
	return b[start:i], nil
}

// intInto, uint and float decode a number as encoding/json does:
// strconv over the literal, an error out of the field's range (and, for
// the integers, on a fraction or an exponent).
func (d *bodyDecoder) intInto(dst *int) error {
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("number %s is not an int", lit)
	}
	*dst = int(n)
	return nil
}

func (d *bodyDecoder) uint() (uint64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	u, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("number %s is not a uint64", lit)
	}
	return u, nil
}

func (d *bodyDecoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range of float64", lit)
	}
	return f, nil
}

// str decodes a string value into dst, interned.
func (d *bodyDecoder) str(dst *string) error {
	if d.peek() != '"' {
		if d.null() {
			return errNull
		}
		return d.errorf("want a string")
	}
	raw, err := d.rawString()
	if err != nil {
		return err
	}
	*dst = d.intern(raw)
	return nil
}

// intern returns the body's one copy of the string raw holds.
func (d *bodyDecoder) intern(raw []byte) string {
	s, ok := d.names[string(raw)]
	if !ok {
		s = string(raw)
		d.names[s] = s
	}
	return s
}

// rawString consumes a string literal at d.pos and returns its unquoted
// bytes: a slice of the input when it holds no escape and only valid
// UTF-8, else d.scratch, valid until the next call. encoding/json's
// rules apply: a control byte is an error; each byte of invalid UTF-8
// and each unpaired surrogate escape becomes U+FFFD.
func (d *bodyDecoder) rawString() ([]byte, error) {
	b := d.data
	start := d.pos + 1
	i := start
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			d.pos = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	out := append(d.scratch[:0], b[start:i]...)
	for {
		if i >= len(b) {
			d.pos = i
			return nil, d.errorf("unterminated string")
		}
		c := b[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.scratch = out
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.errorf("control byte in string")
		case c == '\\':
			if i+1 >= len(b) {
				d.pos = i
				return nil, d.errorf("unterminated string")
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
					d.pos = i
					return nil, d.errorf("bad \\u escape")
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
				d.pos = i
				return nil, d.errorf("bad escape")
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

// skip consumes one JSON value of any type, checking its syntax.
func (d *bodyDecoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.errorf("value nested too deep")
	}
	switch c := d.peek(); c {
	case '"':
		_, err := d.rawString()
		return err
	case '{':
		d.pos++
		for more := false; ; {
			_, done, err := d.nextKey(&more)
			if err != nil || done {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '[':
		d.pos++
		for more := false; ; more = true {
			if done, err := d.nextElem(more); err != nil || done {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case 't', 'f':
		_, err := d.boolean()
		return err
	case 'n':
		if d.null() {
			return nil
		}
		return d.errorf("bad literal")
	default:
		_, err := d.number()
		return err
	}
}
