package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/jsonx"
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

// bodyDecoder is the state of one decode: the lexer over the input, the
// intern table and the slabs.
type bodyDecoder struct {
	jsonx.Lexer

	names map[string]string

	strs   slab[string]
	states slab[StateJSON]
	diags  slab[DiagnosticJSON]
	ints   slab[int]
}

func newBodyDecoder(data []byte) *bodyDecoder {
	return &bodyDecoder{Lexer: jsonx.Lexer{Data: data}, names: make(map[string]string, 64)}
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

// object decodes an object whose members are fields: member(f) decodes
// the value of the key fields[f]. A field given twice and a key that
// matches a field only case-insensitively are refused, and any other
// member is skipped. A key is sought from the field after the last one
// found on, since the appenders write fields in order.
func (d *bodyDecoder) object(fields []string, member func(f int) error) error {
	if err := d.Expect('{'); err != nil {
		return err
	}
	var seen uint32
	next := 0
	for more := false; ; {
		key, done, err := d.NextKey(&more)
		if err != nil || done {
			return err
		}
		f := fieldIndex(fields, key, next)
		switch {
		case f < 0:
			err = d.unknown(key, fields)
		case seen&(1<<f) != 0:
			err = errDuplicateKey
		default:
			seen |= 1 << f
			next = f + 1
			err = member(f)
		}
		if err != nil {
			return err
		}
	}
}

// fieldIndex returns the index of key in fields, searching from start
// on and around, or -1.
func fieldIndex(fields []string, key []byte, start int) int {
	for n := range fields {
		if f := (start + n) % len(fields); string(key) == fields[f] {
			return f
		}
	}
	return -1
}

// unknown skips the value of a key no field matches exactly, refusing
// one encoding/json would fold onto a field. The skip bound counts from
// the value, not from the top of the body.
func (d *bodyDecoder) unknown(key []byte, fields []string) error {
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return fmt.Errorf("%w: %q", errFoldedKey, key)
		}
	}
	return d.Skip(0)
}

// The fields of each object, in the order the appenders write them.
var (
	bodyFields        = []string{"session", "mode", "monitors"}
	monitorDiagFields = []string{"spec", "violations", "diagnostics"}
	monitorFields     = []string{"spec", "steps", "accepts", "violations", "fallbacks",
		"last_accept_tick", "accept_ticks", "coverage", "diagnostics", "quarantined", "quarantine_reason"}
	coverageFields   = []string{"state", "transition", "hard_resets", "uncovered"}
	diagnosticFields = []string{"tick", "monitor", "grid_line", "from_state", "guard",
		"guards", "valuation", "input", "recent", "scoreboard"}
	stateFields = []string{"events", "props"}
)

// body decodes the envelope both bodies share, with monitors decoding
// the monitors value.
func (d *bodyDecoder) body(session, mode *string, monitors func() error) error {
	err := d.object(bodyFields, func(f int) error {
		switch f {
		case 0:
			return d.str(session)
		case 1:
			return d.str(mode)
		}
		return monitors()
	})
	if err == nil && d.Peek() != 0 {
		err = d.Errorf("data after the body")
	}
	return err
}

func (d *bodyDecoder) monitorDiagnostics(m *MonitorDiagnosticsJSON) error {
	return d.object(monitorDiagFields, func(f int) (err error) {
		switch f {
		case 0:
			err = d.str(&m.Spec)
		case 1:
			err = d.intInto(&m.Violations)
		case 2:
			m.Diagnostics, err = list(d, &d.diags, (*bodyDecoder).diagnostic)
		}
		return err
	})
}

// list decodes an array, or null as nil, into a run of s, decoding each
// element in place with elem. No element decoder appends to the slab
// of its own type, so the element's address holds while it decodes.
func list[T any](d *bodyDecoder, s *slab[T], elem func(*bodyDecoder, *T) error) ([]T, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.Expect('['); err != nil {
		return nil, err
	}
	start := len(s.buf)
	var zero T
	for more := false; ; more = true {
		if done, err := d.NextElem(more); err != nil {
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
	return d.object(monitorFields, func(f int) (err error) {
		switch f {
		case 0:
			err = d.str(&m.Spec)
		case 1:
			err = d.intInto(&m.Steps)
		case 2:
			err = d.intInto(&m.Accepts)
		case 3:
			err = d.intInto(&m.Violations)
		case 4:
			err = d.intInto(&m.Fallbacks)
		case 5:
			err = d.intInto(&m.LastAcceptTick)
		case 6:
			m.AcceptTicks, err = list(d, &d.ints, (*bodyDecoder).intInto)
		case 7:
			err = d.coverage(&m.Coverage)
		case 8:
			m.Diagnostics, err = list(d, &d.diags, (*bodyDecoder).diagnostic)
		case 9:
			m.Quarantined, err = d.boolean()
		case 10:
			err = d.str(&m.QuarantineReason)
		}
		return err
	})
}

func (d *bodyDecoder) coverage(c *CoverageJSON) error {
	return d.object(coverageFields, func(f int) (err error) {
		switch f {
		case 0:
			c.State, err = d.float()
		case 1:
			c.Transition, err = d.float()
		case 2:
			c.HardResets, err = d.uint()
		case 3:
			c.Uncovered, err = list(d, &d.strs, (*bodyDecoder).str)
		}
		return err
	})
}

func (d *bodyDecoder) diagnostic(dj *DiagnosticJSON) error {
	return d.object(diagnosticFields, func(f int) (err error) {
		switch f {
		case 0:
			err = d.intInto(&dj.Tick)
		case 1:
			err = d.str(&dj.Monitor)
		case 2:
			err = d.intInto(&dj.GridLine)
		case 3:
			err = d.intInto(&dj.FromState)
		case 4:
			err = d.str(&dj.Guard)
		case 5:
			dj.Guards, err = list(d, &d.strs, (*bodyDecoder).str)
		case 6:
			dj.Valuation, err = d.uint()
		case 7:
			err = d.state(&dj.Input)
		case 8:
			dj.Recent, err = list(d, &d.states, (*bodyDecoder).state)
		case 9:
			dj.Scoreboard, err = list(d, &d.strs, (*bodyDecoder).str)
		}
		return err
	})
}

func (d *bodyDecoder) state(st *StateJSON) error {
	return d.object(stateFields, func(f int) (err error) {
		if f == 0 {
			st.Events, err = list(d, &d.strs, (*bodyDecoder).str)
		} else {
			st.Props, err = d.props()
		}
		return err
	})
}

// props decodes a props map. A repeated key is assigned again, last
// value winning, exactly as encoding/json fills a map.
func (d *bodyDecoder) props() (map[string]bool, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.Expect('{'); err != nil {
		return nil, err
	}
	m := map[string]bool{}
	for more := false; ; {
		key, done, err := d.NextKey(&more)
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

// boolean, number and str decode a value that cannot be null, refusing
// null with errNull.
func (d *bodyDecoder) boolean() (bool, error) {
	if d.Null() {
		return false, errNull
	}
	return d.Bool()
}

func (d *bodyDecoder) number() ([]byte, error) {
	if d.Null() {
		return nil, errNull
	}
	return d.Number()
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

func (d *bodyDecoder) str(dst *string) error {
	if d.Null() {
		return errNull
	}
	raw, err := d.Str()
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
