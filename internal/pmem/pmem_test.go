package pmem

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/vmem"
)

func TestReadWriteU64(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.WriteU64(64, 0xfeedface12345678)
	if got := p.ReadU64(64); got != 0xfeedface12345678 {
		t.Errorf("ReadU64 = %#x", got)
	}
	// Little-endian layout.
	if p.Data()[64] != 0x78 {
		t.Errorf("byte 0 = %#x, want 0x78 (little endian)", p.Data()[64])
	}
}

func TestQuickU64RoundTrip(t *testing.T) {
	p := NewPool("t", 1<<12)
	f := func(off uint8, v uint64) bool {
		o := uint64(off) * 8
		p.WriteU64(o, v)
		return p.ReadU64(o) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesAndZero(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.WriteBytes(100, []byte("abcdef"))
	if got := p.ReadBytes(100, 6); !bytes.Equal(got, []byte("abcdef")) {
		t.Errorf("ReadBytes = %q", got)
	}
	p.Zero(102, 2)
	if got := p.ReadBytes(100, 6); !bytes.Equal(got, []byte{'a', 'b', 0, 0, 'e', 'f'}) {
		t.Errorf("after Zero = %v", got)
	}
	// Fill, below and above the size where it switches to doubling
	// copies, must touch exactly its range.
	for _, n := range []uint64{1, 5, CachelineSize - 1, CachelineSize, 1000} {
		p.Zero(0, p.Size())
		p.Fill(1001, n, 0xab)
		want := make([]byte, p.Size())
		copy(want[1001:1001+n], bytes.Repeat([]byte{0xab}, int(n)))
		if !bytes.Equal(p.Data(), want) {
			t.Errorf("Fill(1001, %d, 0xab) wrote outside or short of its range", n)
		}
	}
}

func TestCrashRequiresTracking(t *testing.T) {
	p := NewPool("t", 1<<12)
	if err := p.Crash(); !errors.Is(err, ErrTrackingDisabled) {
		t.Errorf("Crash without tracking = %v, want ErrTrackingDisabled", err)
	}
	if _, err := p.DurableImage(); !errors.Is(err, ErrTrackingDisabled) {
		t.Errorf("DurableImage without tracking = %v, want ErrTrackingDisabled", err)
	}
}

func TestUnflushedStoreLostOnCrash(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.WriteU64(0, 1)
	p.EnableTracking(nil)
	p.WriteU64(0, 2) // never flushed
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadU64(0); got != 1 {
		t.Errorf("after crash = %d, want pre-tracking value 1", got)
	}
}

func TestFlushWithoutFenceNotDurable(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.EnableTracking(nil)
	p.WriteU64(0, 7)
	p.Flush(0, 8)
	// No fence: store must not survive the crash.
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadU64(0); got != 0 {
		t.Errorf("flushed-unfenced store survived crash: %d", got)
	}
}

func TestPersistSurvivesCrash(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.EnableTracking(nil)
	p.WriteU64(0, 7)
	p.Persist(0, 8)
	p.WriteU64(8, 9) // unflushed neighbour
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadU64(0); got != 7 {
		t.Errorf("persisted store lost on crash: %d", got)
	}
	// The neighbour was in the same cacheline as the flushed range, so
	// it was written *after* the fence and must be lost.
	if got := p.ReadU64(8); got != 0 {
		t.Errorf("unflushed store survived crash: %d", got)
	}
}

func TestFlushCoversWholeCacheline(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.EnableTracking(nil)
	p.WriteU64(0, 1)
	p.WriteU64(56, 2)
	// Flushing any byte of the line persists the whole line.
	p.Persist(30, 1)
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if p.ReadU64(0) != 1 || p.ReadU64(56) != 2 {
		t.Errorf("cacheline flush did not cover whole line: %d %d", p.ReadU64(0), p.ReadU64(56))
	}
}

func TestDisableTrackingKeepsWorkingImage(t *testing.T) {
	p := NewPool("t", 1<<12)
	p.EnableTracking(nil)
	p.WriteU64(0, 42)
	p.DisableTracking()
	if got := p.ReadU64(0); got != 42 {
		t.Errorf("working image lost on DisableTracking: %d", got)
	}
	if p.Tracking() {
		t.Error("Tracking() = true after DisableTracking")
	}
}

type traceRecorder struct {
	stores  []uint64
	data    [][]byte // the bytes of each store
	flushes []uint64
	fences  int
}

func (r *traceRecorder) RecordStore(off uint64, data []byte) {
	r.stores = append(r.stores, off)
	r.data = append(r.data, data)
}
func (r *traceRecorder) RecordFlush(off, size uint64) { r.flushes = append(r.flushes, off) }
func (r *traceRecorder) RecordFence()                 { r.fences++ }

func TestTraceSinkSeesEvents(t *testing.T) {
	p := NewPool("t", 1<<12)
	rec := &traceRecorder{}
	p.EnableTracking(rec)
	p.WriteU64(128, 5)
	p.WriteBytes(200, []byte{1, 2})
	p.Zero(300, 4)
	p.Persist(128, 8)
	if len(rec.stores) != 3 {
		t.Errorf("sink saw %d stores, want 3", len(rec.stores))
	}
	if len(rec.flushes) != 1 || rec.flushes[0] != 128 {
		t.Errorf("flushes = %v, want [128]", rec.flushes)
	}
	if rec.fences != 1 {
		t.Errorf("fences = %d, want 1", rec.fences)
	}
}

// TestBracketedStoresJoinTrace: stores that reach the device through
// the store bracket rather than a pmem writer — an application store
// through a vmem mapping the pool observes, and Fill, the path SafePM's
// shadow updates take — join the persistence trace with the bytes they
// wrote.
func TestBracketedStoresJoinTrace(t *testing.T) {
	p := NewPool("t", 1<<12)
	rec := &traceRecorder{}
	p.EnableTracking(rec)
	const base = 0x10000
	as := vmem.New()
	if err := as.Map(&vmem.Mapping{Base: base, Data: p.Data(), Name: p.Name(), Observer: p}); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreU64(base+64, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	p.Fill(256, 3, 0xee)
	wantOff := []uint64{64, 256}
	wantData := [][]byte{{8, 7, 6, 5, 4, 3, 2, 1}, {0xee, 0xee, 0xee}}
	if len(rec.stores) != len(wantOff) {
		t.Fatalf("stores = %v, want %v", rec.stores, wantOff)
	}
	for i := range wantOff {
		if rec.stores[i] != wantOff[i] || !bytes.Equal(rec.data[i], wantData[i]) {
			t.Errorf("store %d = %d %x, want %d %x", i, rec.stores[i], rec.data[i], wantOff[i], wantData[i])
		}
	}
}

// TestEnableTrackingSnapshotsImage: the durable image starts as an
// exact copy of the working image, including bytes on a page boundary
// and in a short last page, which copyNonZero must not skip.
func TestEnableTrackingSnapshotsImage(t *testing.T) {
	p := NewPool("t", 3*4096+100)
	p.WriteBytes(4095, []byte{1, 2})
	p.WriteU64(2*4096+64, 0xfeed)
	p.WriteBytes(p.Size()-1, []byte{9})
	p.EnableTracking(nil)
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, p.Data()) {
		t.Error("durable image differs from the working image it was enabled on")
	}
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if p.Data()[4096] != 2 || p.ReadU64(2*4096+64) != 0xfeed || p.Data()[p.Size()-1] != 9 {
		t.Error("crash lost bytes written before tracking was enabled")
	}
}

func TestSaveAndOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.img")
	p := NewPool(path, 1<<12)
	p.WriteU64(0, 0xabcd)
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := OpenFile(path, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.ReadU64(0); got != 0xabcd {
		t.Errorf("reopened pool ReadU64 = %#x", got)
	}
	// Size mismatch is an error.
	if _, err := OpenFile(path, 1<<13); err == nil {
		t.Error("OpenFile with wrong size succeeded")
	}
	// Missing file creates a fresh pool.
	fresh, err := OpenFile(filepath.Join(dir, "missing.img"), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Size() != 1<<10 {
		t.Errorf("fresh pool size = %d", fresh.Size())
	}
	// Unreadable path surfaces the underlying error.
	if err := os.WriteFile(filepath.Join(dir, "dir"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDurableImageIsACopy(t *testing.T) {
	p := NewPool("t", 1<<10)
	p.EnableTracking(nil)
	p.WriteU64(0, 1)
	p.Persist(0, 8)
	img, err := p.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	img[0] = 0xff
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadU64(0); got != 1 {
		t.Errorf("mutating DurableImage copy affected pool: %d", got)
	}
}

// TestQuickDurabilityModel drives a random store/flush/fence/crash
// sequence against a reference model of the durability rules and
// checks the working image after each crash.
func TestQuickDurabilityModel(t *testing.T) {
	const size = 1 << 12
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		p := NewPool("model", size)
		p.EnableTracking(nil)
		working := make([]byte, size) // what stores produced
		durable := make([]byte, size) // the model's persisted image
		type frange struct{ off, size uint64 }
		var pending []frange
		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // store
				off := uint64(rng.Intn(size-8)) &^ 7
				v := rng.Uint64()
				p.WriteU64(off, v)
				for j := 0; j < 8; j++ {
					working[off+uint64(j)] = byte(v >> (8 * j))
				}
			case 5, 6: // flush
				off := uint64(rng.Intn(size - 64))
				n := uint64(rng.Intn(128) + 1)
				if off+n > size {
					n = size - off
				}
				p.Flush(off, n)
				start := off &^ (CachelineSize - 1)
				end := (off + n + CachelineSize - 1) &^ (CachelineSize - 1)
				if end > size {
					end = size
				}
				pending = append(pending, frange{start, end - start})
			case 7, 8: // fence
				p.Fence()
				for _, f := range pending {
					copy(durable[f.off:f.off+f.size], working[f.off:f.off+f.size])
				}
				pending = pending[:0]
			case 9: // crash
				if err := p.Crash(); err != nil {
					t.Fatal(err)
				}
				copy(working, durable)
				pending = pending[:0]
				for i := 0; i < size; i += 8 {
					if got := p.ReadU64(uint64(i)); got != leU64(durable[i:]) {
						t.Fatalf("trial %d step %d: off %d = %#x, model %#x",
							trial, step, i, got, leU64(durable[i:]))
					}
				}
			}
		}
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for j := 0; j < 8; j++ {
		v |= uint64(b[j]) << (8 * j)
	}
	return v
}
