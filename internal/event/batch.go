package event

import (
	"bytes"
	"fmt"

	"repro/internal/jsonx"
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
// batch — how ticks that arrive as a State (a VCD stream, a JSON journal
// frame) join a batch. The batch must have been Reset to v.Len() slots.
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
// event.State, and no per-tick allocations: names are resolved against
// the vocabulary via sub-slice map lookups, and ticks land in the
// batch's single backing array.
//
// It is the one decoder of a tick's bytes. It packs exactly what
// encoding/json decoding each value into server.StateJSON, then ToState
// and Vocabulary.PackInto, would pack, and refuses what that refuses:
// keys match case-insensitively, an unknown field is skipped whatever
// its value, a top-level null is an empty tick, a repeated events field
// replaces the list and events:null clears it, repeated props keys merge,
// "p":false or "p":null clears p and props:null clears every prop.
// Undeclared symbols are dropped.
type BatchDecoder struct {
	vocab *Vocabulary
	lex   jsonx.Lexer
	// kept is the backing array of the Events slice encoding/json reuses
	// for every events field of one tick, as slots (-1: no event). It is
	// kept only for a tick whose events field repeats: a null element of
	// a later list keeps what an earlier list left at its index.
	kept []int
}

// NewBatchDecoder returns a decoder that packs against v's slots.
func NewBatchDecoder(v *Vocabulary) *BatchDecoder {
	return &BatchDecoder{vocab: v}
}

// Decode scans data as whitespace-separated tick values into dst
// (which is Reset first). When maxTicks > 0 and the stream holds more
// ticks, decoding stops with errTooManyTicks after maxTicks+1 ticks —
// enough for callers to distinguish "over limit" from a short batch.
// It returns the number of ticks decoded; an error names its tick.
func (d *BatchDecoder) Decode(data []byte, dst *PackedBatch, maxTicks int) (int, error) {
	dst.Reset(d.vocab.Len())
	l := &d.lex
	l.Reset(data)
	for l.Space(); l.Pos < len(data); l.Space() {
		if maxTicks > 0 && dst.Len() >= maxTicks {
			return dst.Len() + 1, errTooManyTicks
		}
		if err := d.tick(dst.appendTick(), false); err != nil {
			return 0, fmt.Errorf("tick %d: %w", dst.Len()-1, err)
		}
	}
	return dst.Len(), nil
}

// errTooManyTicks reports a batch over the caller's tick limit.
var errTooManyTicks = fmt.Errorf("event: batch exceeds tick limit")

// IsTooManyTicks reports whether err is the decoder's over-limit error.
func IsTooManyTicks(err error) bool { return err == errTooManyTicks }

// The StateJSON fields a tick key selects.
const (
	fieldOther = iota
	fieldEvents
	fieldProps
)

// tickField matches key to a field as encoding/json does: exactly, or
// else case-insensitively.
func tickField(key []byte) int {
	switch string(key) {
	case "events":
		return fieldEvents
	case "props":
		return fieldProps
	}
	switch {
	case bytes.EqualFold(key, []byte("events")):
		return fieldEvents
	case bytes.EqualFold(key, []byte("props")):
		return fieldProps
	}
	return fieldOther
}

// tick decodes one tick, an object or null, into the zeroed p. A tick
// whose events field repeats is decoded again from its start with
// replay set, which sets the event slots from d.kept at the end.
func (d *BatchDecoder) tick(p Packed, replay bool) error {
	l := &d.lex
	start := l.Pos // Decode leaves it on the tick's first byte
	if l.Data[start] != '{' {
		if l.Null() {
			return nil
		}
		return l.Errorf("want '{' or null")
	}
	l.Pos++
	var sawEvents, sawProps bool
	n := 0 // with replay, the length of the last events list
	for more := false; ; {
		key, done, err := l.NextKey(&more)
		if err != nil {
			return err
		}
		if done {
			break
		}
		switch tickField(key) {
		case fieldEvents:
			switch {
			case replay:
				n, err = d.keptEvents()
			case sawEvents:
				p.Zero()
				l.Pos, d.kept = start, d.kept[:0]
				return d.tick(p, true)
			default:
				err = d.events(p)
			}
			sawEvents = true
		case fieldProps:
			err = d.props(p, sawProps)
			sawProps = true
		default:
			err = l.Skip(1)
		}
		if err != nil {
			return err
		}
	}
	if replay {
		for _, slot := range d.kept[:n] {
			if slot >= 0 {
				p.Set(slot)
			}
		}
	}
	return nil
}

// events decodes a tick's first events value, null or an array, setting
// the slot of every element string the vocabulary declares as an event.
// A null element names no event. This is ingest's hottest loop, so it
// scans with a local index and sets the lexer's position only around
// the lexer's calls.
func (d *BatchDecoder) events(p Packed) error {
	l := &d.lex
	b := l.Data
	i := jsonx.Space(b, l.Pos)
	if i == len(b) || b[i] != '[' {
		if l.Null() {
			return nil
		}
		return l.Errorf("want '[' or null")
	}
	if i = jsonx.Space(b, i+1); i < len(b) && b[i] == ']' {
		l.Pos = i + 1
		return nil
	}
	for {
		if i < len(b) && b[i] == '"' {
			name, next, err := l.StrAt(i)
			if err != nil {
				return err
			}
			if slot, ok := d.vocab.events[string(name)]; ok {
				p.Set(slot)
			}
			i = next
		} else if l.Pos = i; l.Null() {
			i = l.Pos
		} else {
			return l.Errorf("want a string or null")
		}
		if i = jsonx.Space(b, i); i == len(b) {
			l.Pos = i
			return l.Errorf("unterminated array")
		}
		switch b[i] {
		case ',':
			i = jsonx.Space(b, i+1)
		case ']':
			l.Pos = i + 1
			return nil
		default:
			l.Pos = i
			return l.Errorf("want ',' or ']'")
		}
	}
}

// keptEvents decodes an events value into d.kept as encoding/json
// decodes it into the tick's Events slice, and returns the list's
// length: null or [] drops the slice; element i of a list overwrites
// index i of the slice's backing array, except that a null element
// leaves what a former list put there (or no event).
func (d *BatchDecoder) keptEvents() (int, error) {
	l := &d.lex
	if l.Null() {
		d.kept = d.kept[:0]
		return 0, nil
	}
	if err := l.Expect('['); err != nil {
		return 0, err
	}
	for i, more := 0, false; ; i, more = i+1, true {
		if done, err := l.NextElem(more); err != nil {
			return 0, err
		} else if done {
			if i == 0 {
				d.kept = d.kept[:0]
			}
			return i, nil
		}
		slot := -1
		if l.Peek() == 'n' && l.Null() {
			if i < len(d.kept) {
				continue
			}
		} else {
			name, err := l.Str()
			if err != nil {
				return 0, err
			}
			if s, ok := d.vocab.events[string(name)]; ok {
				slot = s
			}
		}
		if i < len(d.kept) {
			d.kept[i] = slot
		} else {
			d.kept = append(d.kept, slot)
		}
	}
}

// props decodes a props value, null or an object of true, false or null
// members, into p as encoding/json merges it into the tick's Props map:
// true sets a declared name's slot, false and null clear it. again says
// an earlier props value may have set slots, which null then clears.
func (d *BatchDecoder) props(p Packed, again bool) error {
	l := &d.lex
	if l.Null() {
		if again {
			for _, slot := range d.vocab.props {
				p.Clear(slot)
			}
		}
		return nil
	}
	if err := l.Expect('{'); err != nil {
		return err
	}
	set := again // a slot may be set, so false and null must clear
	for more := false; ; {
		name, done, err := l.NextKey(&more)
		if err != nil || done {
			return err
		}
		switch {
		case l.Literal("true"):
			if slot, ok := d.vocab.props[string(name)]; ok {
				p.Set(slot)
				set = true
			}
		case l.Literal("false"), l.Null():
			if slot, ok := d.vocab.props[string(name)]; ok && set {
				p.Clear(slot)
			}
		default:
			return l.Errorf("want true, false or null")
		}
	}
}
