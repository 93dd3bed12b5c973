package vmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T, base Addr, size uint64) *AddressSpace {
	t.Helper()
	as := New()
	if err := as.Map(&Mapping{Base: base, Data: make([]byte, size), Name: "test"}); err != nil {
		t.Fatalf("map: %v", err)
	}
	return as
}

func TestMapRejectsOverlap(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)
	tests := []struct {
		name string
		base Addr
		size uint64
	}{
		{"identical", 0x1000, 0x1000},
		{"head overlap", 0x800, 0x900},
		{"tail overlap", 0x1f00, 0x200},
		{"contained", 0x1100, 0x100},
		{"containing", 0x800, 0x3000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := as.Map(&Mapping{Base: tt.base, Data: make([]byte, tt.size), Name: tt.name})
			if err == nil {
				t.Fatalf("Map(%#x, %#x) succeeded, want overlap error", tt.base, tt.size)
			}
		})
	}
}

func TestMapRejectsEmptyAndWrapping(t *testing.T) {
	as := New()
	if err := as.Map(&Mapping{Base: 0x1000, Name: "empty"}); err == nil {
		t.Error("mapping with empty region accepted")
	}
	if err := as.Map(&Mapping{Base: ^Addr(0) - 10, Data: make([]byte, 100), Name: "wrap"}); err == nil {
		t.Error("wrapping mapping accepted")
	}
}

func TestMapAdjacentRegionsAllowed(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)
	if err := as.Map(&Mapping{Base: 0x2000, Data: make([]byte, 0x1000), Name: "next"}); err != nil {
		t.Fatalf("adjacent mapping rejected: %v", err)
	}
	if err := as.Map(&Mapping{Base: 0x0, Data: make([]byte, 0x1000), Name: "prev"}); err != nil {
		t.Fatalf("adjacent mapping rejected: %v", err)
	}
}

func TestUnmap(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)
	if err := as.Unmap(0x1000); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if _, err := as.LoadU8(0x1000); err == nil {
		t.Error("load after unmap succeeded")
	}
	if err := as.Unmap(0x1000); err == nil {
		t.Error("double unmap succeeded")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)

	if err := as.StoreU8(0x1000, 0xab); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU8(0x1000); err != nil || v != 0xab {
		t.Errorf("LoadU8 = %#x, %v; want 0xab", v, err)
	}

	if err := as.StoreU16(0x1010, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU16(0x1010); err != nil || v != 0xbeef {
		t.Errorf("LoadU16 = %#x, %v; want 0xbeef", v, err)
	}

	if err := as.StoreU32(0x1020, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU32(0x1020); err != nil || v != 0xdeadbeef {
		t.Errorf("LoadU32 = %#x, %v; want 0xdeadbeef", v, err)
	}

	if err := as.StoreU64(0x1030, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadU64(0x1030); err != nil || v != 0x0123456789abcdef {
		t.Errorf("LoadU64 = %#x, %v; want 0x0123456789abcdef", v, err)
	}
}

func TestFaultOnUnmappedAccess(t *testing.T) {
	as := newSpace(t, 0x1000, 0x100)
	tests := []struct {
		name string
		fn   func() error
	}{
		{"load below", func() error { _, err := as.LoadU8(0xfff); return err }},
		{"load above", func() error { _, err := as.LoadU8(0x1100); return err }},
		{"load straddling end", func() error { _, err := as.LoadU64(0x10f9); return err }},
		{"store above", func() error { return as.StoreU64(0x1100, 1) }},
		{"store straddling end", func() error { return as.StoreU32(0x10fd, 1) }},
		{"overflow-bit address", func() error { _, err := as.LoadU64(1<<62 | 0x1000); return err }},
		{"bytes straddling end", func() error { return as.StoreBytes(0x10f0, make([]byte, 32)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.fn()
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want FaultError", err)
			}
		})
	}
}

func TestFaultErrorFields(t *testing.T) {
	as := newSpace(t, 0x1000, 0x100)
	_, err := as.LoadU64(0x2000)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want FaultError", err)
	}
	if fe.Addr != 0x2000 || fe.Size != 8 || fe.Kind != Load {
		t.Errorf("fault = %+v, want addr=0x2000 size=8 kind=load", fe)
	}
	if fe.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestBytesAndMemmove(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)
	src := []byte("persistent memory")
	if err := as.StoreBytes(0x1000, src); err != nil {
		t.Fatal(err)
	}
	got, err := as.LoadBytes(0x1000, uint64(len(src)))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("LoadBytes = %q, %v; want %q", got, err, src)
	}
	if err := as.Memmove(0x1100, 0x1000, uint64(len(src))); err != nil {
		t.Fatal(err)
	}
	got, _ = as.LoadBytes(0x1100, uint64(len(src)))
	if !bytes.Equal(got, src) {
		t.Fatalf("after Memmove = %q, want %q", got, src)
	}
	// Overlapping forward copy must behave like memmove, not memcpy.
	if err := as.Memmove(0x1004, 0x1000, uint64(len(src))); err != nil {
		t.Fatal(err)
	}
	got, _ = as.LoadBytes(0x1004, uint64(len(src)))
	if !bytes.Equal(got, src) {
		t.Fatalf("overlapping Memmove = %q, want %q", got, src)
	}
}

func TestMemset(t *testing.T) {
	as := newSpace(t, 0x1000, 0x100)
	if err := as.Memset(0x1010, 0x7f, 16); err != nil {
		t.Fatal(err)
	}
	got, _ := as.LoadBytes(0x1010, 16)
	for i, b := range got {
		if b != 0x7f {
			t.Fatalf("byte %d = %#x, want 0x7f", i, b)
		}
	}
	if err := as.Memset(0x10f0, 0, 17); err == nil {
		t.Error("Memset past end succeeded")
	}
}

func TestCString(t *testing.T) {
	as := newSpace(t, 0x1000, 0x100)
	if err := as.StoreBytes(0x1000, append([]byte("hello"), 0)); err != nil {
		t.Fatal(err)
	}
	s, err := as.CString(0x1000, 64)
	if err != nil || s != "hello" {
		t.Fatalf("CString = %q, %v; want hello", s, err)
	}
	if _, err := as.CString(0x1000, 3); err == nil {
		t.Error("CString with short max succeeded")
	}
	// Unterminated string running off the mapping must fault.
	if err := as.Memset(0x1000, 'x', 0x100); err != nil {
		t.Fatal(err)
	}
	_, err = as.CString(0x1000, 0x1000)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("unterminated CString: got %v, want FaultError", err)
	}
}

func TestSliceAliasesBacking(t *testing.T) {
	as := newSpace(t, 0x1000, 0x100)
	s, err := as.Slice(0x1008, 8)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 0x42
	if v, _ := as.LoadU8(0x1008); v != 0x42 {
		t.Errorf("write through slice not visible: %#x", v)
	}
	if _, err := as.Slice(0x10ff, 2); err == nil {
		t.Error("slice past end succeeded")
	}
}

// recordingObserver logs each bracketed store and checks the bracket's
// shape: every store in the test writes non-zero bytes into zeroed
// memory, so BeginStore must still see zeros and EndStore the written
// bytes.
type recordingObserver struct {
	mu     sync.Mutex
	data   []byte
	events []uint64 // packed off<<8 | size, appended by EndStore
	open   int      // stores begun and not yet ended
	errs   []string
}

func (r *recordingObserver) written(off, size uint64) bool {
	for _, b := range r.data[off : off+size] {
		if b == 0 {
			return false
		}
	}
	return true
}

func (r *recordingObserver) BeginStore(off, size uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open != 0 || r.written(off, 1) {
		r.errs = append(r.errs, fmt.Sprintf("BeginStore(%#x, %d) after the write or inside another store", off, size))
	}
	r.open++
	return true
}

func (r *recordingObserver) EndStore(off, size uint64, began bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !began || r.open != 1 || !r.written(off, size) {
		r.errs = append(r.errs, fmt.Sprintf("EndStore(%#x, %d) before the write or without a BeginStore", off, size))
	}
	r.open--
	r.events = append(r.events, off<<8|size)
}

func TestStoreObserver(t *testing.T) {
	data := make([]byte, 0x100)
	obs := &recordingObserver{data: data}
	as := New()
	if err := as.Map(&Mapping{Base: 0x1000, Data: data, Name: "obs", Observer: obs}); err != nil {
		t.Fatal(err)
	}
	stores := []func() error{
		func() error { return as.StoreU64(0x1008, 0x0101010101010101) },
		func() error { return as.StoreBytes(0x1010, []byte{1, 2, 3}) },
		func() error { return as.StoreU8(0x1020, 1) },
		func() error { return as.StoreU16(0x1022, 0x0101) },
		func() error { return as.StoreU32(0x1024, 0x01010101) },
		func() error { return as.Memmove(0x1030, 0x1008, 8) },
		func() error { return as.Memset(0x1040, 0xaa, 5) },
	}
	for _, store := range stores {
		if err := store(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := as.LoadU64(0x1008); err != nil {
		t.Fatal(err)
	}
	want := []uint64{8<<8 | 8, 0x10<<8 | 3, 0x20<<8 | 1, 0x22<<8 | 2, 0x24<<8 | 4, 0x30<<8 | 8, 0x40<<8 | 5}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	for _, e := range obs.errs {
		t.Error(e)
	}
	if len(obs.events) != len(want) {
		t.Fatalf("observer saw %d events, want %d", len(obs.events), len(want))
	}
	for i := range want {
		if obs.events[i] != want[i] {
			t.Errorf("event %d = %#x, want %#x", i, obs.events[i], want[i])
		}
	}
}

func TestConcurrentMapAndAccess(t *testing.T) {
	as := newSpace(t, 0x1000, 0x1000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := Addr(0x1000 + g*64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := as.StoreU64(addr, uint64(g)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if _, err := as.LoadU64(addr); err != nil {
					t.Errorf("load: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		base := Addr(0x100000 + i*0x1000)
		if err := as.Map(&Mapping{Base: base, Data: make([]byte, 16), Name: "extra"}); err != nil {
			t.Fatalf("concurrent map: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQuickLoadStoreU64(t *testing.T) {
	as := newSpace(t, 0x10000, 1<<16)
	f := func(off uint16, v uint64) bool {
		addr := 0x10000 + Addr(off)%(1<<16-8)
		if err := as.StoreU64(addr, v); err != nil {
			return false
		}
		got, err := as.LoadU64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapAllocAndFree(t *testing.T) {
	as := New()
	h, err := NewHeap(as, DefaultHeapBase, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if a != DefaultHeapBase {
		t.Errorf("first alloc at %#x, want heap base %#x", a, DefaultHeapBase)
	}
	if err := as.StoreU64(a, 7); err != nil {
		t.Fatalf("store into heap alloc: %v", err)
	}
	b, err := h.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+24 {
		t.Errorf("allocations overlap: %#x then %#x", a, b)
	}
	if b%16 != 0 {
		t.Errorf("allocation %#x not 16-byte aligned", b)
	}
	used := h.Used()
	h.Free(b) // LIFO free recycles
	if h.Used() >= used {
		t.Errorf("LIFO free did not shrink heap: %d -> %d", used, h.Used())
	}
	h.Free(a) // non-top free is a no-op
	c, _ := h.Alloc(8)
	if c == a {
		t.Error("non-LIFO free recycled memory")
	}
}

func TestHeapExhaustion(t *testing.T) {
	as := New()
	h, err := NewHeap(as, DefaultHeapBase, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(48); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(32); err == nil {
		t.Error("allocation beyond heap size succeeded")
	}
}

func TestHeapZeroSizeAlloc(t *testing.T) {
	as := New()
	h, err := NewHeap(as, DefaultHeapBase, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("zero-size allocations share an address")
	}
}
