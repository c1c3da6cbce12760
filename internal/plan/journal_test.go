package plan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"greencloud/internal/lp"
)

// writeJournal runs reqs on a journaled daemon and returns the journal's
// bytes and the daemon's views.
func writeJournal(t testing.TB, spec TraceSpec, reqs []TickRequest) ([]byte, []PlanView) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]PlanView, 0, len(reqs))
	for _, req := range reqs {
		v, err := d.Tick(req)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, views
}

// TestDaemonRestartWithoutTickKeepsJournal: restarting from a journal and
// stopping without a tick leaves the file byte for byte as it was, so
// repeated restarts (a crash loop, a benchmark's restore samples) all
// resume the same state.
func TestDaemonRestartWithoutTickKeepsJournal(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, d, scaleStream(t, spec, 5))
	crashed := d.PlanView()
	d.Close()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := New(Config{Trace: spec, SnapshotPath: path, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		requireSameView(t, r.PlanView(), crashed)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("restart %d changed the journal: %d bytes, was %d", i, len(got), len(want))
		}
	}
}

// tornFile fails every append halfway through, like a full disk.
type tornFile struct{ *os.File }

func (f tornFile) WriteAt(p []byte, off int64) (int, error) {
	n, _ := f.File.WriteAt(p[:len(p)/2], off)
	return n, errors.New("injected short write")
}

// TestDaemonJournalAppendFailure: a failed append is rolled back to the
// last record boundary and reported in SnapshotError while the daemon keeps
// serving; the next append writes the missed record along with its own, so
// a restart resumes at the latest tick, not a gap.
func TestDaemonJournalAppendFailure(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reqs := scaleStream(t, spec, 6)
	runStream(t, d, reqs[:3])
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	real := d.journal.f.(*os.File)
	d.journal.f = tornFile{real}
	v, err := d.Tick(reqs[3])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.SnapshotError, "injected short write") || d.PlanView().SnapshotError != v.SnapshotError {
		t.Fatalf("failed append not reported: SnapshotError %q", v.SnapshotError)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatalf("failed append not rolled back: %d bytes, want %d", len(got), len(before))
	}

	d.journal.f = real
	v, err = d.Tick(reqs[4])
	if err != nil {
		t.Fatal(err)
	}
	if v.SnapshotError != "" {
		t.Fatalf("append after recovery failed: %s", v.SnapshotError)
	}
	d.Close()

	r, err := New(Config{Trace: spec, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameView(t, r.PlanView(), v)
}

// TestJournalStatsFields pins the record layout to lp.Stats: a counter
// added to the struct must be added to the journal too.
func TestJournalStatsFields(t *testing.T) {
	if n := reflect.TypeOf(lp.Stats{}).NumField(); n != numStats {
		t.Fatalf("lp.Stats has %d fields, the journal record carries %d", n, numStats)
	}
}

// TestJournalRecordSizeFlat pins the O(1) per-tick cost: the record a tick
// appends is the same size at tick 1000 as at tick 10 once its migration
// schedule — the one part that varies with what the tick did — is set
// aside.
func TestJournalRecordSizeFlat(t *testing.T) {
	const ticks = 1000
	spec := testSpec()
	raw, _ := writeJournal(t, spec, make([]TickRequest, ticks))
	ends := recordEnds(t, raw)
	if len(ends) != ticks+1 {
		t.Fatalf("journal holds %d records, want %d", len(ends)-1, ticks)
	}
	d, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	net := func(tick int) (int, int) {
		body := raw[ends[tick-1]+recordFrameBytes : ends[tick]]
		var rec record
		if err := d.decodeRecord(body, tick-1, &rec); err != nil {
			t.Fatal(err)
		}
		moves := 1 // the count
		var tmp [binary.MaxVarintLen64]byte
		for _, mv := range rec.moves {
			moves += binary.PutUvarint(tmp[:], uint64(d.vmIndex[mv.VM.ID])) +
				binary.PutUvarint(tmp[:], uint64(d.dcIndex[mv.From])) +
				binary.PutUvarint(tmp[:], uint64(d.dcIndex[mv.To]))
		}
		return len(body) - moves, len(rec.basis)
	}
	early, earlyBasis := net(10)
	late, lateBasis := net(ticks)
	t.Logf("record net of moves: %d B at tick 10 (basis %d B), %d B at tick %d (basis %d B)",
		early, earlyBasis, late, ticks, lateBasis)
	// Varint widths (tick index, counters, nanos) and the devex weights
	// the basis carries may differ by a few dozen bytes.
	if late > early+64 || early > late+64 {
		t.Fatalf("record size moved from %d B to %d B between tick 10 and %d", early, late, ticks)
	}
	if late > 4096 {
		t.Fatalf("record of %d B at tick %d", late, ticks)
	}
}

// validPrefix is the fuzz oracle: how many whole records at the start of
// recs (the bytes after the header) have a frame that fits, a matching
// CRC-32C and a body that decodes in sequence, and where they end.
func validPrefix(d *Daemon, recs []byte) (n, end int) {
	var rec record
	for off := 0; off+recordFrameBytes <= len(recs); n++ {
		size := int(binary.LittleEndian.Uint32(recs[off:]))
		if size > len(recs)-off-recordFrameBytes {
			break
		}
		body := recs[off+recordFrameBytes : off+recordFrameBytes+size]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(recs[off+4:]) ||
			d.decodeRecord(body, n, &rec) != nil {
			break
		}
		off += recordFrameBytes + size
		end = off
	}
	return n, end
}

// reframe returns recs with the CRC-32C of every whole frame recomputed,
// so a fuzzed body reaches the record decoder and the replay instead of
// stopping at its checksum.
func reframe(recs []byte) []byte {
	out := append([]byte(nil), recs...)
	for off := 0; off+recordFrameBytes <= len(out); {
		size := int(binary.LittleEndian.Uint32(out[off:]))
		if size > len(out)-off-recordFrameBytes {
			break
		}
		body := out[off+recordFrameBytes : off+recordFrameBytes+size]
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(body, castagnoli))
		off += recordFrameBytes + size
	}
	return out
}

// FuzzJournalResume: whatever follows a valid header, restore never
// panics, resumes exactly at the count of whole valid records — never past
// the first bad one — and truncates the file to them.  A record that
// decodes but whose moves the runner refuses (a VM not at its source, a
// move onto itself) instead sends the daemon to a logged cold start on a
// fresh journal.  Each input is tried as is and with its frame checksums
// recomputed, so mutations reach the decoder and the replay.  Seeded with
// a real journal whose records carry scale changes and migrations, cut and
// flipped.
func FuzzJournalResume(f *testing.F) {
	spec := testSpec()
	raw, _ := writeJournal(f, spec, scaleStream(f, spec, 6))
	nl := bytes.IndexByte(raw, '\n')
	header, recs := raw[:nl+1], raw[nl+1:]
	f.Add(recs)
	f.Add(recs[:len(recs)/2])
	f.Add(recs[:len(recs)-1])
	f.Add(flipAt(recs, len(recs)-3))
	f.Add(append(append([]byte(nil), recs...), recs...))
	f.Add([]byte{})

	d, err := New(Config{Trace: spec})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(recs []byte) {
			path := filepath.Join(t.TempDir(), "plan.snap")
			if err := os.WriteFile(path, append(append([]byte(nil), header...), recs...), 0o644); err != nil {
				t.Fatal(err)
			}
			want, end := validPrefix(d, recs)
			var cold bool
			d.logf = func(format string, _ ...any) {
				cold = cold || strings.Contains(format, "starting cold")
			}
			if err := d.coldStart(); err != nil {
				t.Fatal(err)
			}
			if err := d.openJournal(path); err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			v := d.PlanView()
			if cold {
				want, end = 0, 0
			}
			if v.Tick != want || v.Resumed != (want > 0) {
				t.Fatalf("resumed=%v at tick %d (cold start %v), want tick %d", v.Resumed, v.Tick, cold, want)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(len(header)+end) {
				t.Fatalf("journal not truncated to its %d valid records (%d bytes): %v", want, len(header)+end, err)
			}
		}
		check(data)
		check(reframe(data))
	})
}
