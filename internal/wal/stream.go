package wal

// Live-tail streaming. The cluster replicator ships a session's journal
// to its ring successor while the owner keeps appending; ReadFrom is the
// reader side of that: it scans intact records from a caller-held
// position, stops quietly at the (possibly still-growing) tail, and
// detects checkpoint pruning so the caller knows when the stream is no
// longer contiguous with what it shipped before.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Position addresses a record boundary inside one session's journal: a
// segment index plus a byte offset into that segment. The zero Position
// means "from the beginning".
type Position struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// ReadFrom scans the session's journal from pos, invoking fn for every
// intact record in order, and returns the position just past the last
// record consumed. Payloads alias a read buffer of this call's own.
// It is designed for concurrent live tailing:
//
//   - It never truncates or repairs anything. A record cut short at the
//     end of the newest segment is the owner's in-flight append; the
//     scan stops there and a later call resumes at the same position.
//   - When pos addresses a segment that a checkpoint has pruned (or an
//     offset past the end of a rebuilt journal), the scan restarts from
//     the oldest remaining segment and reports reset=true: the caller's
//     downstream copy is stale and must be rebuilt from this stream.
//     reset is decided before any record is delivered, so every record
//     fn sees in one call is contiguous from the reported start.
//   - A segment pruned by a checkpoint racing the scan ends the call
//     early with no error; the next call observes the prune as a normal
//     reset. A journal directory that does not exist yet yields no
//     records and no error.
//
// A structurally corrupt record anywhere before the newest segment's
// tail is reported as an error, exactly like open-time recovery.
func (m *Manager) ReadFrom(id string, pos Position, fn func(Record) error) (next Position, reset bool, err error) {
	dir := filepath.Join(m.opts.Dir, id)
scan:
	for restarts := 0; ; restarts++ {
		segs, err := listSegments(dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return pos, reset, nil
			}
			return pos, reset, err
		}
		if len(segs) == 0 {
			return pos, reset, nil
		}
		start := pos
		idx := -1
		if start.Segment == 0 {
			start = Position{Segment: segs[0]}
			idx = 0
		} else {
			for i, seg := range segs {
				if seg == start.Segment {
					idx = i
					break
				}
			}
			if idx < 0 {
				// The segment we were reading has been pruned: everything
				// shipped so far is subsumed by a snapshot record at the
				// head of the oldest remaining segment.
				start = Position{Segment: segs[0]}
				idx = 0
				reset = true
			}
		}
		cur := start
		for i := idx; i < len(segs); i++ {
			seg := segs[i]
			off := int64(0)
			if seg == start.Segment {
				off = start.Offset
			}
			last := i == len(segs)-1
			consumed, stopped, err := scanSegmentFrom(filepath.Join(dir, segName(seg)), off, last, fn)
			switch {
			case errors.Is(err, errSegmentVanished), errors.Is(err, errOffsetPastEnd):
				// A checkpoint raced the scan. Both conditions surface
				// before the affected segment delivers anything; if this
				// was the first segment no record has been delivered at
				// all, so the whole scan can restart as a reset.
				if i == idx {
					if restarts >= 3 {
						return pos, reset, fmt.Errorf("wal: session %s: journal kept changing during scan", id)
					}
					pos = Position{}
					reset = true
					continue scan
				}
				// Records from earlier segments were delivered and are
				// contiguous from start; stop cleanly after them and let
				// the next call observe the prune as a reset.
				return cur, reset, nil
			case err != nil:
				return Position{Segment: seg, Offset: off + consumed}, reset, err
			}
			cur = Position{Segment: seg, Offset: off + consumed}
			if stopped {
				break
			}
		}
		return cur, reset, nil
	}
}

// errSegmentVanished marks a segment deleted between listing and open —
// a checkpoint racing the scan.
var errSegmentVanished = errors.New("wal: segment vanished during scan")

// errOffsetPastEnd marks a resume offset beyond the segment's current
// size — the journal was rebuilt (shorter) under the same name.
var errOffsetPastEnd = errors.New("wal: resume offset past end of segment")

// scanSegmentFrom reads intact records from one segment starting at off.
// It returns the bytes consumed past off and stopped=true when it hit an
// incomplete tail record (only tolerated on the newest segment; anywhere
// else it is corruption).
func scanSegmentFrom(path string, off int64, last bool, fn func(Record) error) (consumed int64, stopped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, false, errSegmentVanished
		}
		return 0, false, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if off > st.Size() {
		return 0, false, errOffsetPastEnd
	}
	data := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(data, off); err != nil {
		return 0, false, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	for {
		rec, size, err := readFrame(data[consumed:])
		switch {
		case err == io.EOF:
			return consumed, false, nil
		case last && (err == errTorn || err == errCRC):
			// At the newest segment's tail a short frame is the owner's
			// append in flight; a CRC mismatch is treated the same (real
			// corruption stalls the stream, which the lag gauge shows).
			// The next call resumes here.
			return consumed, true, nil
		case err != nil:
			return consumed, true, corruptAt(path, int(off+consumed), err)
		}
		if err := fn(rec); err != nil {
			return consumed, true, err
		}
		consumed += int64(size)
	}
}

// Distance reports how many journal bytes lie between pos and the
// session's current end — the replication lag of a downstream reader at
// pos. A pruned (or zero) position counts the whole remaining journal.
func (m *Manager) Distance(id string, pos Position) (int64, error) {
	dir := filepath.Join(m.opts.Dir, id)
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	var total int64
	for _, seg := range segs {
		if pos.Segment != 0 && seg < pos.Segment {
			continue
		}
		st, err := os.Stat(filepath.Join(dir, segName(seg)))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // pruned mid-walk
			}
			return 0, err
		}
		size := st.Size()
		if seg == pos.Segment {
			size -= pos.Offset
			if size < 0 {
				size = 0
			}
		}
		total += size
	}
	return total, nil
}
