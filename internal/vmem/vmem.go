// Package vmem simulates a 64-bit virtual address space.
//
// SPP's implicit bounds check relies on MMU behaviour: a tagged pointer
// whose overflow bit survives tag cleaning resolves to an address that no
// mapping covers, so the next load or store faults. This package provides
// that address space in Go: byte-addressable mappings registered at fixed
// virtual bases, load/store primitives operating on 64-bit addresses, and
// deterministic faults for any access that falls outside every mapping.
//
// Persistent-memory pools are mapped in the lower part of the address
// space (the paper sets PMEM_MMAP_HINT=0 for the same reason) and the
// simulated volatile heap is mapped high, below the overflow bit.
package vmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr is a simulated 64-bit virtual address.
type Addr = uint64

// AccessKind distinguishes loads from stores in fault reports.
type AccessKind int

// Access kinds.
const (
	Load AccessKind = iota + 1
	Store
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "access"
	}
}

// FaultError reports an access outside every mapping — the simulated
// SIGSEGV/bus error that an overflown SPP pointer triggers.
type FaultError struct {
	Addr Addr
	Size uint64
	Kind AccessKind
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("vmem: fault: invalid %s of %d bytes at 0x%x", e.Kind, e.Size, e.Addr)
}

// StoreObserver brackets every store that lands in a mapping registered
// with an observer: BeginStore runs before the bytes are touched and
// EndStore, handed BeginStore's result, after. The persistent-memory
// device uses the bracket to order stores against its fences and to
// record store events for crash-consistency checking.
type StoreObserver interface {
	BeginStore(off, size uint64) bool
	EndStore(off, size uint64, began bool)
}

// Mapping is a contiguous region of the address space backed by a byte
// slice.
type Mapping struct {
	// Base is the first virtual address of the region.
	Base Addr
	// Data backs the region; its length fixes the region size.
	Data []byte
	// Name identifies the mapping in diagnostics.
	Name string
	// Observer, if non-nil, brackets stores with offsets relative to
	// Base.
	Observer StoreObserver
}

// beginStore and endStore bracket a store at off when the mapping has
// an observer.
func (m *Mapping) beginStore(off, size uint64) bool {
	return m.Observer != nil && m.Observer.BeginStore(off, size)
}

func (m *Mapping) endStore(off, size uint64, began bool) {
	if m.Observer != nil {
		m.Observer.EndStore(off, size, began)
	}
}

func (m *Mapping) contains(addr Addr, size uint64) bool {
	off := addr - m.Base
	return addr >= m.Base && off < uint64(len(m.Data)) && uint64(len(m.Data))-off >= size
}

// AddressSpace is a set of non-overlapping mappings. The zero value is
// an empty address space ready for use. Lookups are lock-free; Map and
// Unmap copy-on-write the mapping table, so they are safe to call
// concurrently with accesses.
type AddressSpace struct {
	mu   sync.Mutex // serializes Map/Unmap
	maps atomic.Pointer[[]*Mapping]
}

// New returns an empty address space.
func New() *AddressSpace {
	return &AddressSpace{}
}

func (as *AddressSpace) table() []*Mapping {
	p := as.maps.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Map registers a region. It returns an error if the region is empty,
// wraps around the address space, or overlaps an existing mapping.
func (as *AddressSpace) Map(m *Mapping) error {
	if len(m.Data) == 0 {
		return fmt.Errorf("vmem: map %q: empty region", m.Name)
	}
	size := uint64(len(m.Data))
	if m.Base+size < m.Base {
		return fmt.Errorf("vmem: map %q: region wraps address space", m.Name)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	old := as.table()
	for _, ex := range old {
		exEnd := ex.Base + uint64(len(ex.Data))
		if m.Base < exEnd && ex.Base < m.Base+size {
			return fmt.Errorf("vmem: map %q: overlaps mapping %q at 0x%x", m.Name, ex.Name, ex.Base)
		}
	}
	next := make([]*Mapping, len(old)+1)
	copy(next, old)
	next[len(old)] = m
	as.maps.Store(&next)
	return nil
}

// Unmap removes the mapping starting at base. It returns an error if no
// mapping starts there.
func (as *AddressSpace) Unmap(base Addr) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	old := as.table()
	for i, ex := range old {
		if ex.Base == base {
			next := make([]*Mapping, 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			as.maps.Store(&next)
			return nil
		}
	}
	return fmt.Errorf("vmem: unmap: no mapping at 0x%x", base)
}

// Resolve returns the mapping covering [addr, addr+size) or a fault.
func (as *AddressSpace) Resolve(addr Addr, size uint64, kind AccessKind) (*Mapping, error) {
	for _, m := range as.table() {
		if m.contains(addr, size) {
			return m, nil
		}
	}
	return nil, &FaultError{Addr: addr, Size: size, Kind: kind}
}

// Slice returns a view of mapped memory for [addr, addr+size). The view
// aliases the backing array: writes through it are visible but bypass
// the store observer's bracket, so it must only be used for reads or for
// regions whose mapping has no observer.
func (as *AddressSpace) Slice(addr Addr, size uint64) ([]byte, error) {
	m, err := as.Resolve(addr, size, Load)
	if err != nil {
		return nil, err
	}
	off := addr - m.Base
	return m.Data[off : off+size : off+size], nil
}

// LoadU8 loads one byte.
func (as *AddressSpace) LoadU8(addr Addr) (byte, error) {
	m, err := as.Resolve(addr, 1, Load)
	if err != nil {
		return 0, err
	}
	return m.Data[addr-m.Base], nil
}

// LoadU16 loads a little-endian 16-bit value.
func (as *AddressSpace) LoadU16(addr Addr) (uint16, error) {
	m, err := as.Resolve(addr, 2, Load)
	if err != nil {
		return 0, err
	}
	off := addr - m.Base
	return binary.LittleEndian.Uint16(m.Data[off:]), nil
}

// LoadU32 loads a little-endian 32-bit value.
func (as *AddressSpace) LoadU32(addr Addr) (uint32, error) {
	m, err := as.Resolve(addr, 4, Load)
	if err != nil {
		return 0, err
	}
	off := addr - m.Base
	return binary.LittleEndian.Uint32(m.Data[off:]), nil
}

// LoadU64 loads a little-endian 64-bit value.
func (as *AddressSpace) LoadU64(addr Addr) (uint64, error) {
	m, err := as.Resolve(addr, 8, Load)
	if err != nil {
		return 0, err
	}
	off := addr - m.Base
	return binary.LittleEndian.Uint64(m.Data[off:]), nil
}

// StoreU8 stores one byte.
func (as *AddressSpace) StoreU8(addr Addr, v byte) error {
	m, err := as.Resolve(addr, 1, Store)
	if err != nil {
		return err
	}
	off := addr - m.Base
	began := m.beginStore(off, 1)
	m.Data[off] = v
	m.endStore(off, 1, began)
	return nil
}

// StoreU16 stores a little-endian 16-bit value.
func (as *AddressSpace) StoreU16(addr Addr, v uint16) error {
	m, err := as.Resolve(addr, 2, Store)
	if err != nil {
		return err
	}
	off := addr - m.Base
	began := m.beginStore(off, 2)
	binary.LittleEndian.PutUint16(m.Data[off:], v)
	m.endStore(off, 2, began)
	return nil
}

// StoreU32 stores a little-endian 32-bit value.
func (as *AddressSpace) StoreU32(addr Addr, v uint32) error {
	m, err := as.Resolve(addr, 4, Store)
	if err != nil {
		return err
	}
	off := addr - m.Base
	began := m.beginStore(off, 4)
	binary.LittleEndian.PutUint32(m.Data[off:], v)
	m.endStore(off, 4, began)
	return nil
}

// StoreU64 stores a little-endian 64-bit value.
func (as *AddressSpace) StoreU64(addr Addr, v uint64) error {
	m, err := as.Resolve(addr, 8, Store)
	if err != nil {
		return err
	}
	off := addr - m.Base
	began := m.beginStore(off, 8)
	binary.LittleEndian.PutUint64(m.Data[off:], v)
	m.endStore(off, 8, began)
	return nil
}

// AppendBytes appends the size bytes starting at addr to dst and returns
// the extended slice; on a fault dst comes back as it was. It is the one
// copy out of mapped memory: a caller that has room in dst pays no
// allocation for it.
func (as *AddressSpace) AppendBytes(dst []byte, addr Addr, size uint64) ([]byte, error) {
	if size == 0 {
		return dst, nil
	}
	m, err := as.Resolve(addr, size, Load)
	if err != nil {
		return dst, err
	}
	off := addr - m.Base
	return append(dst, m.Data[off:off+size]...), nil
}

// LoadBytes copies size bytes starting at addr into a fresh slice.
func (as *AddressSpace) LoadBytes(addr Addr, size uint64) ([]byte, error) {
	return as.AppendBytes(nil, addr, size)
}

// StoreBytes writes b starting at addr.
func (as *AddressSpace) StoreBytes(addr Addr, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	m, err := as.Resolve(addr, uint64(len(b)), Store)
	if err != nil {
		return err
	}
	off := addr - m.Base
	began := m.beginStore(off, uint64(len(b)))
	copy(m.Data[off:], b)
	m.endStore(off, uint64(len(b)), began)
	return nil
}

// Memmove copies n bytes from src to dst, handling overlap like the C
// memmove. Both ranges must be fully mapped.
func (as *AddressSpace) Memmove(dst, src Addr, n uint64) error {
	if n == 0 {
		return nil
	}
	sm, err := as.Resolve(src, n, Load)
	if err != nil {
		return err
	}
	dm, err := as.Resolve(dst, n, Store)
	if err != nil {
		return err
	}
	soff := src - sm.Base
	doff := dst - dm.Base
	began := dm.beginStore(doff, n)
	copy(dm.Data[doff:doff+n], sm.Data[soff:soff+n])
	dm.endStore(doff, n, began)
	return nil
}

// Memset writes n copies of c starting at dst.
func (as *AddressSpace) Memset(dst Addr, c byte, n uint64) error {
	if n == 0 {
		return nil
	}
	m, err := as.Resolve(dst, n, Store)
	if err != nil {
		return err
	}
	off := dst - m.Base
	began := m.beginStore(off, n)
	region := m.Data[off : off+n]
	for i := range region {
		region[i] = c
	}
	m.endStore(off, n, began)
	return nil
}

// CString reads a NUL-terminated string starting at addr, up to max
// bytes. It faults if the string runs off the end of its mapping before
// a NUL is found.
func (as *AddressSpace) CString(addr Addr, max uint64) (string, error) {
	m, err := as.Resolve(addr, 1, Load)
	if err != nil {
		return "", err
	}
	off := addr - m.Base
	region := m.Data[off:]
	limit := uint64(len(region))
	if max < limit {
		limit = max
	}
	for i := uint64(0); i < limit; i++ {
		if region[i] == 0 {
			return string(region[:i]), nil
		}
	}
	if limit == uint64(len(region)) {
		return "", &FaultError{Addr: addr + limit, Size: 1, Kind: Load}
	}
	return "", fmt.Errorf("vmem: unterminated string at 0x%x (max %d)", addr, max)
}
