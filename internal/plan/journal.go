package plan

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"greencloud/internal/emul"
	"greencloud/internal/lp"
	"greencloud/internal/sched"
)

// ErrSnapshot wraps every journal decode/validation failure, so callers can
// distinguish "no usable journal" (cold start) from infrastructure errors.
var ErrSnapshot = errors.New("plan: invalid snapshot")

// The tick journal.  The -snapshot file is append-only:
//
//	header:  "GNPJ1 <trace digest>\n"
//	record:  uint32 LE body length, uint32 LE CRC-32C of the body, body
//
// and a record body, one per applied tick, is
//
//	uvarint tick index (0-based; a record out of sequence is invalid)
//	uvarint n, then n × (uvarint datacenter, float64 LE green scale):
//	        the scale changes in effect from this tick on
//	uvarint n, then n × (uvarint VM, uvarint from, uvarint to): the
//	        migration schedule the tick executed, as trace indices
//	byte    flags (bit 0: degraded plan)
//	varint  scheduler nanoseconds
//	13 × varint lp.Stats fields, in declaration order
//	float64 LE plan brown kWh, migrated kW, then one first-hour target
//	        load per datacenter
//	rest    lp.Basis.AppendBinary of the post-tick warm basis (empty when
//	        the tick left none)
//
// A tick costs one positioned write of one record, whatever the daemon's
// uptime.  Restore streams the records: it applies each record's scale
// changes, replays its schedule (emul.Runner.Replay — fleet and GDFS
// bookkeeping, no LP work), folds the tick into the serving view exactly as
// Tick does, and installs the last record's basis.  The first record that
// is short, fails its checksum or does not decode ends the journal: it and
// everything after it is a torn tail, truncated away, and the daemon
// resumes at the last whole record.  A file whose header is missing,
// damaged, from another format or from another trace is refused as a unit:
// the daemon starts cold and replaces it with a fresh journal.  Appends are
// not fsynced; a crash loses at most the records the OS had not written.
const journalMagic = "GNPJ1"

// recordFrameBytes is the per-record frame: body length + checksum.
const recordFrameBytes = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// numStats is the number of lp.Stats fields a record carries (pinned by a
// test against the struct, so a new counter cannot silently go unjournaled).
const numStats = 13

// journalFile is the subset of *os.File the journal writes through.
type journalFile interface {
	io.WriterAt
	Truncate(size int64) error
	Close() error
}

// journal is the open tick journal.  Callers hold d.tickMu.
type journal struct {
	f journalFile
	// size is the offset of the last record boundary on disk.
	size int64
	// pending holds encoded records not yet on disk: the record being
	// appended, plus any whose write failed (retried with the next one, so
	// the journal never skips a tick).
	pending []byte
}

// flush writes the pending records at the last record boundary.  A failed
// write is rolled back to that boundary and the records stay pending.
func (j *journal) flush() error {
	if _, err := j.f.WriteAt(j.pending, j.size); err != nil {
		if terr := j.f.Truncate(j.size); terr != nil {
			return fmt.Errorf("%w (rollback: %v)", err, terr)
		}
		return err
	}
	j.size += int64(len(j.pending))
	j.pending = j.pending[:0]
	return nil
}

// scaleChange is one journaled green-scale update.
type scaleChange struct {
	dc    int
	scale float64
}

// tickSummary is what a tick contributes to the serving view beyond its
// hour records: the plan summary, the solver's work and the planning time.
// A record carries it because Replay does not re-plan.
type tickSummary struct {
	stats      lp.Stats
	nanos      int64
	degraded   bool
	brownKWh   float64
	migratedKW float64
	targetKW   []float64
}

// record is one decoded journal record; slices are reused across records.
type record struct {
	changes []scaleChange
	moves   []sched.Migration
	sum     tickSummary
	basis   []byte // aliases the record body
}

func (d *Daemon) journalHeader() string {
	return journalMagic + " " + d.cfg.Trace.Digest() + "\n"
}

// appendRecord appends one framed record for tick to buf.  basis is the
// post-tick warm basis (nil for none); an unencodable basis is left out —
// the record still carries the tick, a restore from it starts cold — and
// reported.
func (d *Daemon) appendRecord(buf []byte, tick *emul.Tick, changes []scaleChange, sum *tickSummary, basis *lp.Basis) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(tick.Index))
	buf = binary.AppendUvarint(buf, uint64(len(changes)))
	for _, c := range changes {
		buf = binary.AppendUvarint(buf, uint64(c.dc))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.scale))
	}
	buf = binary.AppendUvarint(buf, uint64(len(tick.Moves)))
	for _, mv := range tick.Moves {
		buf = binary.AppendUvarint(buf, uint64(d.vmIndex[mv.VM.ID]))
		buf = binary.AppendUvarint(buf, uint64(d.dcIndex[mv.From]))
		buf = binary.AppendUvarint(buf, uint64(d.dcIndex[mv.To]))
	}
	var flags byte
	if sum.degraded {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, sum.nanos)
	for _, v := range statFields(&sum.stats) {
		buf = binary.AppendVarint(buf, int64(*v))
	}
	buf = binary.AppendVarint(buf, sum.stats.PresolveNanos)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sum.brownKWh))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sum.migratedKW))
	for _, kw := range sum.targetKW {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(kw))
	}
	var err error
	if basis != nil {
		buf, err = basis.AppendBinary(buf)
	}
	body := buf[start+recordFrameBytes:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf, err
}

// statFields lists the integer lp.Stats counters in declaration order
// (PresolveNanos, the int64 field, is journaled after them).
func statFields(s *lp.Stats) [numStats - 1]*int {
	return [...]*int{&s.Pivots, &s.BoundFlips, &s.Refactorizations, &s.BlandSwitches,
		&s.ColdFallbacks, &s.Repairs, &s.NaNGuards, &s.PartialPasses,
		&s.CandidateRebuilds, &s.DevexResets, &s.RowsRemoved, &s.ColsRemoved}
}

// errRecord marks a record body that does not decode.
var errRecord = errors.New("malformed record")

// bodyReader decodes a record body; the first failure sticks.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) uvarint(limit uint64) int {
	v, n := binary.Uvarint(r.b)
	if r.err == nil && (n <= 0 || v >= limit) {
		r.err = errRecord
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *bodyReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if r.err == nil && n <= 0 {
		r.err = errRecord
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) float() float64 {
	if r.err == nil && len(r.b) < 8 {
		r.err = errRecord
	}
	if r.err != nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// decodeRecord decodes and validates one record body against the trace; it
// applies nothing, so a record that fails leaves the daemon at the record
// before it.
func (d *Daemon) decodeRecord(body []byte, seq int, rec *record) error {
	r := bodyReader{b: body}
	nDC, nVM := uint64(len(d.names)), uint64(len(d.trace.VMs))
	if got := r.uvarint(math.MaxInt32); r.err == nil && got != seq {
		return fmt.Errorf("record for tick %d, expected tick %d", got, seq)
	}
	rec.changes = rec.changes[:0]
	for n := r.uvarint(nDC + 1); n > 0 && r.err == nil; n-- {
		c := scaleChange{dc: r.uvarint(nDC), scale: r.float()}
		if c.scale < 0 || math.IsInf(c.scale, 0) || math.IsNaN(c.scale) {
			return fmt.Errorf("invalid green scale %v", c.scale)
		}
		rec.changes = append(rec.changes, c)
	}
	n := r.uvarint(uint64(len(r.b))/3 + 1)
	rec.moves = rec.moves[:0]
	for ; n > 0 && r.err == nil; n-- {
		vi, from, to := r.uvarint(nVM), r.uvarint(nDC), r.uvarint(nDC)
		if r.err == nil {
			rec.moves = append(rec.moves, sched.Migration{VM: d.trace.VMs[vi], From: d.names[from], To: d.names[to]})
		}
	}
	if r.err == nil && len(r.b) < 1 {
		r.err = errRecord
	}
	if r.err != nil {
		return r.err
	}
	flags := r.b[0]
	r.b = r.b[1:]
	if flags > 1 {
		return fmt.Errorf("unknown record flags %#x", flags)
	}
	s := &rec.sum
	s.degraded = flags&1 != 0
	s.nanos = r.varint()
	for _, v := range statFields(&s.stats) {
		*v = int(r.varint())
	}
	s.stats.PresolveNanos = r.varint()
	s.brownKWh = r.float()
	s.migratedKW = r.float()
	s.targetKW = s.targetKW[:0]
	for range d.names {
		s.targetKW = append(s.targetKW, r.float())
	}
	rec.basis = r.b
	return r.err
}

// openJournal opens the journal at path — creating it if missing — and
// resumes the freshly started daemon from it.  A torn tail is truncated
// away; a refused journal is logged and replaced by a fresh one, and the
// daemon starts cold.  Only I/O failures are returned.
func (d *Daemon) openJournal(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	fresh := os.IsNotExist(err)
	if fresh {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return err
	}
	j := &journal{f: f}
	if !fresh {
		j.size, err = d.resume(f, path)
		if err != nil && !errors.Is(err, ErrSnapshot) {
			f.Close()
			return err
		}
		if err != nil {
			d.logf("plannerd: snapshot %s rejected, starting cold: %v", path, err)
			if err := d.coldStart(); err != nil {
				f.Close()
				return err
			}
		}
	}
	if j.size == 0 {
		header := d.journalHeader()
		err := f.Truncate(0)
		if err == nil {
			_, err = f.WriteAt([]byte(header), 0)
		}
		if err != nil {
			f.Close()
			return err
		}
		j.size = int64(len(header))
	}
	d.journal = j
	return nil
}

// resume streams the journal in f into the daemon and returns the offset of
// the last whole record.  A refused journal returns an error wrapping
// ErrSnapshot (the caller starts cold); a torn tail is truncated and
// logged.
func (d *Daemon) resume(f *os.File, path string) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	header := d.journalHeader()
	line, err := br.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		return 0, fmt.Errorf("%w: empty file", ErrSnapshot)
	case err != nil && err != io.EOF && err != bufio.ErrBufferFull:
		return 0, err
	case string(line) == header:
	case bytes.HasPrefix(line, []byte("GNPS1 ")):
		return 0, fmt.Errorf("%w: old GNPS1 snapshot format is not supported", ErrSnapshot)
	case bytes.HasPrefix(line, []byte(journalMagic+" trace-")):
		return 0, fmt.Errorf("%w: journal of trace %s, daemon runs %s",
			ErrSnapshot, bytes.TrimSpace(line[len(journalMagic)+1:]), d.cfg.Trace.Digest())
	default:
		return 0, fmt.Errorf("%w: bad header %.40q", ErrSnapshot, line)
	}

	var (
		off       = int64(len(header))
		view      = d.view
		rec       record
		body      []byte
		lastBasis []byte
		frame     [recordFrameBytes]byte
		seq       int
		tail      error
	)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				tail = errors.New("truncated record frame")
			} else if err != io.EOF {
				return 0, err
			}
			break
		}
		n := int64(binary.LittleEndian.Uint32(frame[:4]))
		if n > st.Size()-off-recordFrameBytes {
			tail = fmt.Errorf("record of %d bytes overruns the file", n)
			break
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, err
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			tail = errors.New("checksum mismatch")
			break
		}
		if err := d.decodeRecord(body, seq, &rec); err != nil {
			tail = err
			break
		}
		if err := d.applyRecord(&view, &rec); err != nil {
			return 0, fmt.Errorf("%w: record %d: %v", ErrSnapshot, seq, err)
		}
		lastBasis = append(lastBasis[:0], rec.basis...)
		off += recordFrameBytes + n
		seq++
	}
	if tail != nil {
		d.logf("plannerd: snapshot %s: torn tail at record %d (offset %d of %d): %v; truncating and resuming at tick %d",
			path, seq, off, st.Size(), tail, seq)
		if err := f.Truncate(off); err != nil {
			return 0, err
		}
	}
	copy(d.journaled, d.scale)
	if seq == 0 {
		return off, nil
	}
	var basis *lp.Basis
	if len(lastBasis) > 0 {
		if basis, err = lp.DecodeBasis(lastBasis); err != nil {
			d.logf("plannerd: snapshot %s: last basis unusable, first solve runs cold: %v", path, err)
		}
	}
	d.runner.SetWarmBasis(basis)
	view.GreenScale = d.scaleMap()
	view.Resumed = true
	view.WarmResume = basis != nil
	d.view = view
	return off, nil
}

// applyRecord re-executes one journaled tick: its scale changes, then its
// recorded schedule, folded into view.
func (d *Daemon) applyRecord(view *PlanView, rec *record) error {
	for _, c := range rec.changes {
		if err := d.runner.SetGreenScale(d.names[c.dc], c.scale); err != nil {
			return err
		}
		d.scale[c.dc] = c.scale
	}
	tick, err := d.runner.Replay(rec.moves)
	if err != nil {
		return err
	}
	for i := range tick.Records {
		tick.Records[i].SchedulerNanos = rec.sum.nanos
	}
	foldTick(view, tick, &rec.sum)
	return nil
}
