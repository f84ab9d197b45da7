// Package wal is an append-only, per-session write-ahead journal for the
// cescd daemon. Each session owns a directory of numbered segment files
// holding CRC32-framed records; the server journals every accepted tick
// batch (and periodic monitor-state snapshots) so that after a crash it
// can rebuild each session and report the same verdicts as an
// uninterrupted run.
//
// The package is deliberately semantics-free: callers choose record
// kinds and payload encodings; wal owns framing, segment rotation, the
// fsync policy, snapshot-anchored garbage collection, and torn-tail
// recovery. A record is
//
//	| u32 payload length | u32 CRC32-IEEE(kind ‖ payload) | u8 kind | payload |
//
// in little-endian. On open, segments are scanned in order; a trailing
// record that is cut short or fails its CRC (the torn write of a crash)
// is truncated away and the journal resumes appending after the last
// intact record. Corruption anywhere before the tail is reported as an
// error — that is data loss, not a crash artifact. The same frames are
// the wire format of standby replication: AppendFrame encodes one, and
// ReadFrames reads a byte sequence of them strictly.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs at most once per SyncEvery,
	// lazily at append time — bounded data-loss window, near-SyncNever
	// throughput.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at a per-batch fsync cost.
	SyncAlways
	// SyncNever leaves flushing to the OS; a machine crash can lose the
	// page-cache tail, a process crash loses nothing.
	SyncNever
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy inverts String; it accepts "always", "interval", and
// "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "", "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options tunes a Manager; zero values select the documented defaults.
type Options struct {
	// Dir is the journal root; one subdirectory per session.
	Dir string
	// SegmentBytes rotates to a fresh segment when the current one would
	// exceed this size (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// Faults optionally wires the deterministic fault plane into the
	// append ("wal.append") and fsync ("wal.sync") paths.
	Faults *faultinject.Plane
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	return o
}

// Stats aggregates journal activity across a manager, for /metrics.
type Stats struct {
	Appends  uint64 `json:"appends"`
	Syncs    uint64 `json:"syncs"`
	Bytes    uint64 `json:"bytes"`
	Replayed uint64 `json:"replayed_records"`
	// TornBytes counts bytes truncated from segment tails during open —
	// the torn final write of a crash.
	TornBytes uint64 `json:"torn_bytes"`
}

// Manager roots a journal directory and hands out per-session journals.
type Manager struct {
	opts Options

	appends  atomic.Uint64
	syncs    atomic.Uint64
	bytes    atomic.Uint64
	replayed atomic.Uint64
	torn     atomic.Uint64
}

// OpenManager ensures the root directory exists and returns a manager.
func OpenManager(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty journal directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	return &Manager{opts: opts}, nil
}

// Stats returns cumulative manager-wide counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:   m.appends.Load(),
		Syncs:     m.syncs.Load(),
		Bytes:     m.bytes.Load(),
		Replayed:  m.replayed.Load(),
		TornBytes: m.torn.Load(),
	}
}

// List returns the session IDs that have journals under the root,
// sorted.
func (m *Manager) List() ([]string, error) {
	ents, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", m.opts.Dir, err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Remove deletes a session's journal directory (evicted or deleted
// sessions keep no history).
func (m *Manager) Remove(id string) error {
	return os.RemoveAll(filepath.Join(m.opts.Dir, id))
}

// Writable probes the journal root for writability by creating and
// removing a probe file — the readiness check behind /readyz, where "the
// disk went read-only" must pull the node out of rotation before appends
// start failing. Cheap enough for a load balancer's probe cadence.
func (m *Manager) Writable() error {
	probe := filepath.Join(m.opts.Dir, ".writable-probe")
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: journal dir not writable: %w", err)
	}
	f.Close()
	return os.Remove(probe)
}

// DiskUsage walks every session journal under the root and returns the
// total on-disk bytes plus the per-session breakdown. Journals racing a
// concurrent Remove are tolerated (counted as zero), so callers can
// size-budget a live directory.
func (m *Manager) DiskUsage() (total int64, perSession map[string]int64, err error) {
	ids, err := m.List()
	if err != nil {
		return 0, nil, err
	}
	perSession = make(map[string]int64, len(ids))
	for _, id := range ids {
		var n int64
		dir := filepath.Join(m.opts.Dir, id)
		walkErr := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				n += info.Size()
			}
			return nil
		})
		if walkErr != nil {
			if errors.Is(walkErr, fs.ErrNotExist) {
				continue // lost a race with Remove
			}
			return 0, nil, fmt.Errorf("wal: sizing %s: %w", dir, walkErr)
		}
		perSession[id] = n
		total += n
	}
	return total, perSession, nil
}

// Record is one framed journal entry.
type Record struct {
	Kind byte
	// Payload aliases the buffer the frame was read from (replay reads
	// each segment into a buffer of its own and never reuses it). Its
	// capacity ends with the frame, so an append to it copies instead of
	// overwriting the next frame.
	Payload []byte
}

// frameOverhead is the per-record framing cost: length + CRC + kind.
const frameOverhead = 4 + 4 + 1

// maxPayload bounds a single record so a corrupt length field cannot
// drive an absurd allocation during replay.
const maxPayload = 64 << 20

// Journal is one session's append handle. All methods are safe for
// concurrent use.
type Journal struct {
	mgr *Manager
	dir string

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // current segment index
	segSize  int64
	lastSync time.Time
	dirty    bool
	closed   bool
}

// segName renders the segment file name for an index.
func segName(i uint64) string { return fmt.Sprintf("%016d.wal", i) }

// segIndex parses a segment file name, reporting whether it is one.
func segIndex(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 16+4 {
		return 0, false
	}
	n, err := strconv.ParseUint(name[:16], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenJournal opens (creating if absent) the journal for a session,
// replaying every intact record through fn in append order. A torn tail
// on the final segment is truncated; appends resume after the last
// intact record. A non-nil error from fn aborts the open. Each record's
// payload aliases its segment's read buffer, which is not reused.
func (m *Manager) OpenJournal(id string, fn func(Record) error) (*Journal, error) {
	dir := filepath.Join(m.opts.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{mgr: m, dir: dir, lastSync: time.Now()}
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := j.scanSegment(seg, last, fn); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		j.seg = 1
	} else {
		j.seg = segs[len(segs)-1]
	}
	path := filepath.Join(dir, segName(j.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	j.f = f
	j.segSize = st.Size()
	return j, nil
}

// listSegments returns the segment indices present in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []uint64
	for _, e := range ents {
		if n, ok := segIndex(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment replays one segment. On the final segment a trailing
// short or corrupt record is truncated away (torn write); anywhere else
// it is corruption and an error.
func (j *Journal) scanSegment(seg uint64, last bool, fn func(Record) error) error {
	path := filepath.Join(j.dir, segName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", path, err)
	}
	for off := 0; ; {
		rec, size, err := readFrame(data[off:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if !last {
				return corruptAt(path, off, err)
			}
			j.mgr.torn.Add(uint64(len(data) - off))
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
		j.mgr.replayed.Add(1)
		off += size
	}
}

// readFrame's verdicts on a frame it cannot deliver.
var (
	errTorn    = errors.New("truncated record") // input ends inside the frame
	errTooLong = errors.New("record length exceeds limit")
	errCRC     = errors.New("CRC mismatch")
)

// corruptAt reports a bad frame that no tail policy forgives.
func corruptAt(path string, off int, err error) error {
	return fmt.Errorf("wal: %s: %v at offset %d (mid-journal corruption)", path, err, off)
}

// AppendFrame appends the frame of one record to dst and returns the
// extended slice. It is the only frame encoder: journals write their
// records with it, and the cluster replicator ships them with it.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, recordCRC(kind, payload))
	dst = append(dst, kind)
	return append(dst, payload...)
}

// readFrame is the only frame parser. It reads the frame at the start
// of b into a record whose payload is a sub-slice of b, capped at the
// frame's end, and returns the frame's size. It returns io.EOF when b
// is empty, errTorn when b ends inside the frame, and errTooLong or
// errCRC when the frame is corrupt; each caller applies its own tail
// policy to these.
func readFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < frameOverhead {
		return Record{}, 0, errTorn
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > maxPayload {
		return Record{}, 0, errTooLong
	}
	end := frameOverhead + int(size)
	if end > len(b) {
		return Record{}, 0, errTorn
	}
	if recordCRC(b[8], b[frameOverhead:end]) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, errCRC
	}
	return Record{Kind: b[8], Payload: b[frameOverhead:end:end]}, end, nil
}

// ReadFrames reads b as a sequence of whole frames and calls fn on each
// record in order. Every payload aliases b, capped at its frame's end.
// It is strict: a torn or corrupt frame anywhere in b is an error, as
// is an error from fn.
func ReadFrames(b []byte, fn func(Record) error) error {
	for off := 0; ; {
		rec, size, err := readFrame(b[off:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: %v at offset %d", err, off)
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += size
	}
}

// recordCRC is the CRC32-IEEE of kind ‖ payload. It allocates nothing:
// the kind byte takes one step of the table-driven update by hand, and
// crc32.Update continues from there over the payload.
func recordCRC(kind byte, payload []byte) uint32 {
	crc := ^(crc32.IEEETable[0xff^kind] ^ 0x00ffffff)
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// Append frames and writes one record, rotating segments by size and
// fsyncing per the manager's policy.
func (j *Journal) Append(kind byte, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(kind, payload)
}

func (j *Journal) appendLocked(kind byte, payload []byte) error {
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if err := j.mgr.opts.Faults.Hit("wal.append"); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	frame := int64(frameOverhead + len(payload))
	if j.segSize > 0 && j.segSize+frame > j.mgr.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(AppendFrame(make([]byte, 0, frame), kind, payload)); err != nil {
		return fmt.Errorf("wal: writing %s: %w", j.f.Name(), err)
	}
	j.segSize += frame
	j.dirty = true
	j.mgr.appends.Add(1)
	j.mgr.bytes.Add(uint64(frame))
	return j.maybeSyncLocked()
}

// maybeSyncLocked applies the fsync policy after an append.
func (j *Journal) maybeSyncLocked() error {
	switch j.mgr.opts.Sync {
	case SyncAlways:
		return j.syncLocked()
	case SyncInterval:
		if time.Since(j.lastSync) >= j.mgr.opts.SyncEvery {
			return j.syncLocked()
		}
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.mgr.opts.Faults.Hit("wal.sync"); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", j.f.Name(), err)
	}
	j.dirty = false
	j.lastSync = time.Now()
	j.mgr.syncs.Add(1)
	return nil
}

// rotateLocked syncs and closes the current segment and opens the next.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", j.f.Name(), err)
	}
	j.seg++
	path := filepath.Join(j.dir, segName(j.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening %s: %w", path, err)
	}
	j.f = f
	j.segSize = 0
	return nil
}

// AppendCheckpoint rotates to a fresh segment, writes the record (a
// caller-encoded state snapshot that subsumes all earlier records),
// fsyncs it regardless of policy, and deletes every older segment —
// recovery then replays only the snapshot plus the tail appended after
// it.
func (j *Journal) AppendCheckpoint(kind byte, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	if err := j.rotateLocked(); err != nil {
		return err
	}
	if err := j.appendLocked(kind, payload); err != nil {
		return err
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	segs, err := listSegments(j.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg < j.seg {
			if err := os.Remove(filepath.Join(j.dir, segName(seg))); err != nil {
				return fmt.Errorf("wal: removing old segment: %w", err)
			}
		}
	}
	return nil
}

// Sync forces an fsync of buffered appends.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the journal without a final sync — the crash-simulation
// path: whatever the OS has not flushed is exactly what a real crash
// would lose under the configured policy.
func (j *Journal) Abandon() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	_ = j.f.Close()
}

// SegmentCount reports how many segment files the journal currently
// holds (tests assert checkpoint GC this way).
func (j *Journal) SegmentCount() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	segs, err := listSegments(j.dir)
	return len(segs), err
}
