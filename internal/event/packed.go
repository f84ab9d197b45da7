package event

// Packed is a bitset valuation over interned symbol slots: bit i is the
// truth value of the symbol at index i of the Support or Vocabulary that
// packed it. It is the runtime representation of the paper's state
// s = (f1, f2) on the fast path: the symbol table is consulted once per
// tick when the state is packed, and every subsequent guard evaluation
// is pure bit arithmetic over slot indices. Unlike Valuation it has no
// width limit, so one Packed can span the union vocabulary of many
// monitors.
type Packed []uint64

// PackedWords returns the number of 64-bit words needed for n slots.
func PackedWords(n int) int { return (n + 63) / 64 }

// Bit reports the truth value of slot i (false when out of range, so a
// narrow Packed behaves like a valuation padded with false).
func (p Packed) Bit(i int) bool {
	w := i >> 6
	if w >= len(p) {
		return false
	}
	return p[w]&(1<<uint(i&63)) != 0
}

// Set makes slot i true. Slot i must be within the packed width.
func (p Packed) Set(i int) { p[i>>6] |= 1 << uint(i&63) }

// Zero resets every slot to false, keeping the allocation.
func (p Packed) Zero() {
	for i := range p {
		p[i] = 0
	}
}

// Clone returns an independent copy.
func (p Packed) Clone() Packed {
	c := make(Packed, len(p))
	copy(c, p)
	return c
}

// Equal reports whether two packed valuations assign the same truth
// values (missing high words are false).
func (p Packed) Equal(q Packed) bool {
	long, short := p, q
	if len(q) > len(p) {
		long, short = q, p
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ensureWidth grows p (reusing the backing array when possible) so it
// can hold n slots, and zeroes it.
func ensureWidth(p Packed, n int) Packed {
	w := PackedWords(n)
	if cap(p) < w {
		return make(Packed, w)
	}
	p = p[:w]
	p.Zero()
	return p
}

// packSym sets slot i when the state's valuation of sym is true.
func packSym(p Packed, i int, sym Symbol, s State) {
	switch sym.Kind {
	case KindEvent:
		if s.Events[sym.Name] {
			p.Set(i)
		}
	case KindProp:
		if s.Props[sym.Name] {
			p.Set(i)
		}
	}
}

// PackInto projects a State onto the support's slots, reusing buf when
// it has capacity. Symbols absent from the support are dropped — exact
// for guard evaluation, which can only mention support symbols.
func (sp *Support) PackInto(s State, buf Packed) Packed {
	buf = ensureWidth(buf, len(sp.symbols))
	for i, sym := range sp.symbols {
		packSym(buf, i, sym, s)
	}
	return buf
}

// Pack projects a State onto the support's slots into a fresh Packed.
func (sp *Support) Pack(s State) Packed { return sp.PackInto(s, nil) }

// UnpackState expands a packed valuation back into a map-based State.
// The round trip State -> Pack -> UnpackState is lossless over the
// support's symbols (absent map keys are false on both sides).
func (sp *Support) UnpackState(p Packed) State {
	s := NewState()
	for i, sym := range sp.symbols {
		if !p.Bit(i) {
			continue
		}
		switch sym.Kind {
		case KindEvent:
			s.Events[sym.Name] = true
		case KindProp:
			s.Props[sym.Name] = true
		}
	}
	return s
}

// PackInto projects a State onto the vocabulary's slots, reusing buf.
// Like Support.PackInto, symbols the vocabulary has not declared are
// dropped.
func (v *Vocabulary) PackInto(s State, buf Packed) Packed {
	buf = ensureWidth(buf, len(v.symbols))
	v.pack(s, buf)
	return buf
}

// pack sets the slots of s's true symbols in the zeroed p. It iterates
// the state's entries rather than the vocabulary: a session vocabulary
// spans every loaded monitor while one tick mentions only a handful of
// symbols.
func (v *Vocabulary) pack(s State, p Packed) {
	for name, val := range s.Events {
		if i, ok := v.events[name]; ok && val {
			p.Set(i)
		}
	}
	for name, val := range s.Props {
		if i, ok := v.props[name]; ok && val {
			p.Set(i)
		}
	}
}

// Pack projects a State onto the vocabulary's slots into a fresh Packed.
func (v *Vocabulary) Pack(s State) Packed { return v.PackInto(s, nil) }

// UnpackState expands a packed valuation back into a map-based State
// over the vocabulary's symbols.
func (v *Vocabulary) UnpackState(p Packed) State {
	s := NewState()
	for i, sym := range v.symbols {
		if !p.Bit(i) {
			continue
		}
		switch sym.Kind {
		case KindEvent:
			s.Events[sym.Name] = true
		case KindProp:
			s.Props[sym.Name] = true
		}
	}
	return s
}

// DeclareSupport declares every symbol of sp into the vocabulary. It is
// how a session builds one shared interner over the union of its
// monitors' supports.
func (v *Vocabulary) DeclareSupport(sp *Support) error {
	for _, sym := range sp.Symbols() {
		if _, err := v.Declare(sym.Name, sym.Kind); err != nil {
			return err
		}
	}
	return nil
}
