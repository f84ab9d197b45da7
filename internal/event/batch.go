package event

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// PackedBatch is a dense column of packed valuations: n ticks, each
// occupying stride words, in one contiguous backing array. It is the
// landing zone of the batch ingest path — the decoder
// writes symbol bits straight into it, and steppers read each tick as a
// Packed view without copying.
type PackedBatch struct {
	words  []uint64
	stride int
	n      int
}

// Reset prepares the batch for decoding against a symbol table of the
// given slot count, dropping any previous ticks but keeping the backing
// array.
func (b *PackedBatch) Reset(slots int) {
	b.stride = PackedWords(slots)
	b.n = 0
	b.words = b.words[:0]
}

// Len returns the number of ticks in the batch.
func (b *PackedBatch) Len() int { return b.n }

// Tick returns tick i as a Packed view into the batch's backing array.
// The view is valid until the next Reset.
func (b *PackedBatch) Tick(i int) Packed {
	return Packed(b.words[i*b.stride : (i+1)*b.stride])
}

// AppendState packs s onto v's slots as a new tick at the end of the
// batch — how ticks that arrive as a State (a VCD stream, an NDJSON body
// the strict decoder refused, a JSON journal frame) join a batch. The
// batch must have been Reset to v.Len() slots.
func (b *PackedBatch) AppendState(v *Vocabulary, s State) {
	v.pack(s, b.appendTick())
}

// appendTick grows the batch by one zeroed tick and returns its view.
func (b *PackedBatch) appendTick() Packed {
	need := (b.n + 1) * b.stride
	if cap(b.words) < need {
		grown := make([]uint64, need, need*2+b.stride)
		copy(grown, b.words)
		b.words = grown
	} else {
		b.words = b.words[:need]
	}
	w := b.words[b.n*b.stride : need]
	for i := range w {
		w[i] = 0
	}
	b.n++
	return Packed(w)
}

// BatchDecoder decodes a whitespace-separated stream of NDJSON tick
// objects — the cescd ingest wire format,
//
//	{"events":["cmd","resp"],"props":{"busy":true}}
//
// — directly into a PackedBatch, packing each named symbol into its
// vocabulary slot as the bytes are scanned. No intermediate maps, no
// event.State, and no per-tick allocations: symbol names are resolved
// against the vocabulary via sub-slice map lookups, escape sequences are
// unescaped into a reused scratch buffer, and ticks land in the batch's
// single backing array. The packing semantics match
// Vocabulary.PackInto(StateJSON.ToState(tick)) exactly: undeclared
// symbols are dropped, false props are ignored.
//
// The decoder is strict where encoding/json is lenient (unknown or
// duplicate fields, non-string event entries, trailing garbage all
// error); callers fall back to the encoding/json path on any error, so
// strictness costs speed only, never behaviour.
type BatchDecoder struct {
	vocab   *Vocabulary
	scratch []byte
}

// NewBatchDecoder returns a decoder that packs against v's slots.
func NewBatchDecoder(v *Vocabulary) *BatchDecoder {
	return &BatchDecoder{vocab: v}
}

// Decode scans data as whitespace-separated tick objects into dst
// (which is Reset first). When maxTicks > 0 and the stream holds more
// ticks, decoding stops with errTooManyTicks after maxTicks+1 ticks —
// enough for callers to distinguish "over limit" from a short batch.
// It returns the number of ticks decoded.
func (d *BatchDecoder) Decode(data []byte, dst *PackedBatch, maxTicks int) (int, error) {
	dst.Reset(d.vocab.Len())
	i := skipSpace(data, 0)
	for i < len(data) {
		if maxTicks > 0 && dst.Len() >= maxTicks {
			return dst.Len() + 1, errTooManyTicks
		}
		var err error
		i, err = d.tick(data, i, dst.appendTick())
		if err != nil {
			return 0, err
		}
		i = skipSpace(data, i)
	}
	return dst.Len(), nil
}

// errTooManyTicks reports a batch over the caller's tick limit.
var errTooManyTicks = fmt.Errorf("event: batch exceeds tick limit")

// IsTooManyTicks reports whether err is the decoder's over-limit error.
func IsTooManyTicks(err error) bool { return err == errTooManyTicks }

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// tick parses one {"events":[...],"props":{...}} object starting at
// data[i], setting slots on p, and returns the index after it.
func (d *BatchDecoder) tick(data []byte, i int, p Packed) (int, error) {
	if i >= len(data) || data[i] != '{' {
		return 0, fmt.Errorf("event: tick %d: expected '{'", i)
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, nil
	}
	var sawEvents, sawProps bool
	for {
		key, j, err := d.str(data, i)
		if err != nil {
			return 0, err
		}
		i = skipSpace(data, j)
		if i >= len(data) || data[i] != ':' {
			return 0, fmt.Errorf("event: offset %d: expected ':'", i)
		}
		i = skipSpace(data, i+1)
		switch string(key) {
		case "events":
			if sawEvents {
				return 0, fmt.Errorf("event: duplicate events field")
			}
			sawEvents = true
			i, err = d.events(data, i, p)
		case "props":
			if sawProps {
				return 0, fmt.Errorf("event: duplicate props field")
			}
			sawProps = true
			i, err = d.props(data, i, p)
		default:
			return 0, fmt.Errorf("event: unknown tick field %q", key)
		}
		if err != nil {
			return 0, err
		}
		i = skipSpace(data, i)
		if i >= len(data) {
			return 0, fmt.Errorf("event: unterminated tick object")
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("event: offset %d: expected ',' or '}'", i)
		}
	}
}

// events parses null or an array of event-name strings, setting the
// slot of every name the vocabulary declares as an event.
func (d *BatchDecoder) events(data []byte, i int, p Packed) (int, error) {
	if next, ok := literal(data, i, "null"); ok {
		return next, nil
	}
	if i >= len(data) || data[i] != '[' {
		return 0, fmt.Errorf("event: offset %d: expected events array", i)
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for {
		name, j, err := d.str(data, i)
		if err != nil {
			return 0, err
		}
		if slot, ok := d.vocab.events[string(name)]; ok {
			p.Set(slot)
		}
		i = skipSpace(data, j)
		if i >= len(data) {
			return 0, fmt.Errorf("event: unterminated events array")
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("event: offset %d: expected ',' or ']'", i)
		}
	}
}

// props parses null or an object of name:bool pairs, setting the slot
// of every true name the vocabulary declares as a prop.
func (d *BatchDecoder) props(data []byte, i int, p Packed) (int, error) {
	if next, ok := literal(data, i, "null"); ok {
		return next, nil
	}
	if i >= len(data) || data[i] != '{' {
		return 0, fmt.Errorf("event: offset %d: expected props object", i)
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, nil
	}
	for {
		name, j, err := d.str(data, i)
		if err != nil {
			return 0, err
		}
		i = skipSpace(data, j)
		if i >= len(data) || data[i] != ':' {
			return 0, fmt.Errorf("event: offset %d: expected ':'", i)
		}
		i = skipSpace(data, i+1)
		if next, ok := literal(data, i, "true"); ok {
			if slot, ok := d.vocab.props[string(name)]; ok {
				p.Set(slot)
			}
			i = next
		} else if next, ok := literal(data, i, "false"); ok {
			i = next
		} else {
			return 0, fmt.Errorf("event: offset %d: expected true or false", i)
		}
		i = skipSpace(data, i)
		if i >= len(data) {
			return 0, fmt.Errorf("event: unterminated props object")
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("event: offset %d: expected ',' or '}'", i)
		}
	}
}

// literal matches a bare JSON literal at data[i] and returns the index
// after it. The byte following must not extend an identifier, so
// "nullx" does not match "null".
func literal(data []byte, i int, lit string) (int, bool) {
	if i+len(lit) > len(data) || string(data[i:i+len(lit)]) != lit {
		return 0, false
	}
	j := i + len(lit)
	if j < len(data) {
		switch c := data[j]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			return 0, false
		}
	}
	return j, true
}

// str parses the JSON string starting at data[i] (which must be '"').
// It returns the decoded bytes — a sub-slice of data when no escapes
// occur, the reused scratch buffer otherwise — and the index after the
// closing quote. The returned slice is valid until the next str call.
func (d *BatchDecoder) str(data []byte, i int) ([]byte, int, error) {
	if i >= len(data) || data[i] != '"' {
		return nil, 0, fmt.Errorf("event: offset %d: expected string", i)
	}
	i++
	start := i
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			return data[start:i], i + 1, nil
		case c == '\\':
			return d.strSlow(data, start, i)
		case c < 0x20:
			return nil, 0, fmt.Errorf("event: control byte in string")
		}
		i++
	}
	return nil, 0, fmt.Errorf("event: unterminated string")
}

// strSlow finishes parsing a string that contains escapes, unescaping
// into the scratch buffer.
func (d *BatchDecoder) strSlow(data []byte, start, i int) ([]byte, int, error) {
	d.scratch = append(d.scratch[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			return d.scratch, i + 1, nil
		case c < 0x20:
			return nil, 0, fmt.Errorf("event: control byte in string")
		case c != '\\':
			d.scratch = append(d.scratch, c)
			i++
			continue
		}
		i++
		if i >= len(data) {
			return nil, 0, fmt.Errorf("event: unterminated escape")
		}
		switch data[i] {
		case '"', '\\', '/':
			d.scratch = append(d.scratch, data[i])
			i++
		case 'b':
			d.scratch = append(d.scratch, '\b')
			i++
		case 'f':
			d.scratch = append(d.scratch, '\f')
			i++
		case 'n':
			d.scratch = append(d.scratch, '\n')
			i++
		case 'r':
			d.scratch = append(d.scratch, '\r')
			i++
		case 't':
			d.scratch = append(d.scratch, '\t')
			i++
		case 'u':
			r, next, err := hexRune(data, i+1)
			if err != nil {
				return nil, 0, err
			}
			i = next
			if utf16.IsSurrogate(r) {
				// A high surrogate may pair with an immediately following
				// \uXXXX low surrogate; anything else is the replacement
				// rune, matching encoding/json.
				if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
					r2, next2, err := hexRune(data, i+2)
					if err != nil {
						return nil, 0, err
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i = next2
					} else {
						r = utf8.RuneError
					}
				} else {
					r = utf8.RuneError
				}
			}
			d.scratch = utf8.AppendRune(d.scratch, r)
		default:
			return nil, 0, fmt.Errorf("event: bad escape \\%c", data[i])
		}
	}
	return nil, 0, fmt.Errorf("event: unterminated string")
}

// hexRune parses the four hex digits of a \uXXXX escape starting at
// data[i] and returns the rune plus the index after the digits.
func hexRune(data []byte, i int) (rune, int, error) {
	if i+4 > len(data) {
		return 0, 0, fmt.Errorf("event: truncated \\u escape")
	}
	var r rune
	for _, c := range data[i : i+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, 0, fmt.Errorf("event: bad \\u escape digit %q", c)
		}
	}
	return r, i + 4, nil
}
