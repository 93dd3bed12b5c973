package hooks

import "fmt"

// Checked load/store helpers. Each is a dereference site: the hook
// (Check) runs first, then the access goes through the simulated
// address space, where an SPP overflow faults.

// LoadU64 loads 8 bytes through the runtime's bounds check.
func LoadU64(rt Runtime, p uint64) (uint64, error) {
	a, err := rt.Check(p, 8)
	if err != nil {
		return 0, Trap(rt, err)
	}
	v, err := rt.Space().LoadU64(a)
	return v, Trap(rt, err)
}

// StoreU64 stores 8 bytes through the runtime's bounds check.
func StoreU64(rt Runtime, p uint64, v uint64) error {
	a, err := rt.Check(p, 8)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().StoreU64(a, v))
}

// LoadU8 loads one byte through the runtime's bounds check.
func LoadU8(rt Runtime, p uint64) (byte, error) {
	a, err := rt.Check(p, 1)
	if err != nil {
		return 0, Trap(rt, err)
	}
	b, err := rt.Space().LoadU8(a)
	return b, Trap(rt, err)
}

// StoreU8 stores one byte through the runtime's bounds check.
func StoreU8(rt Runtime, p uint64, v byte) error {
	a, err := rt.Check(p, 1)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().StoreU8(a, v))
}

// LoadU64PM is LoadU64 through the _direct hook for statically-known
// PM pointers (pointer-tracking optimization).
func LoadU64PM(rt Runtime, p uint64) (uint64, error) {
	a, err := rt.CheckPM(p, 8)
	if err != nil {
		return 0, Trap(rt, err)
	}
	v, err := rt.Space().LoadU64(a)
	return v, Trap(rt, err)
}

// StoreU64PM is StoreU64 through the _direct hook.
func StoreU64PM(rt Runtime, p uint64, v uint64) error {
	a, err := rt.CheckPM(p, 8)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().StoreU64(a, v))
}

// Interposed memory intrinsics — SPP's __wrap_memcpy family (§IV-D).
// Each pointer operand passes through MemIntr with the full touched
// range, then the built-in operation runs on the masked addresses.

// Memcpy copies n bytes; ranges must not overlap.
func Memcpy(rt Runtime, dst, src uint64, n uint64) error {
	return Memmove(rt, dst, src, n)
}

// Memmove copies n bytes with overlap allowed.
func Memmove(rt Runtime, dst, src uint64, n uint64) error {
	if n == 0 {
		return nil
	}
	sa, err := rt.MemIntr(src, n)
	if err != nil {
		return Trap(rt, err)
	}
	da, err := rt.MemIntr(dst, n)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().Memmove(da, sa, n))
}

// Memset fills n bytes with c.
func Memset(rt Runtime, dst uint64, c byte, n uint64) error {
	if n == 0 {
		return nil
	}
	da, err := rt.MemIntr(dst, n)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().Memset(da, c, n))
}

// Strlen returns the length of the NUL-terminated string at p. The
// scan itself is the access: running off the object's end faults
// (SPP) or reports a violation (shadow mechanisms) at the first
// out-of-bounds byte.
func Strlen(rt Runtime, p uint64) (uint64, error) {
	var n uint64
	for {
		b, err := LoadU8(rt, rt.Gep(p, int64(n)))
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return n, nil
		}
		n++
		if n > 1<<30 {
			return 0, fmt.Errorf("hooks: unterminated string at %#x", p)
		}
	}
}

// Strcpy copies the NUL-terminated string at src to dst, checking the
// whole destination range first, as SPP's wrapper does.
func Strcpy(rt Runtime, dst, src uint64) error {
	n, err := Strlen(rt, src)
	if err != nil {
		return err
	}
	sa, err := rt.MemIntr(src, n+1)
	if err != nil {
		return Trap(rt, err)
	}
	da, err := rt.MemIntr(dst, n+1)
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().Memmove(da, sa, n+1))
}

// Strcat appends the string at src to the string at dst.
func Strcat(rt Runtime, dst, src uint64) error {
	dlen, err := Strlen(rt, dst)
	if err != nil {
		return err
	}
	return Strcpy(rt, rt.Gep(dst, int64(dlen)), src)
}

// Strcmp compares the strings at a and b like C strcmp.
func Strcmp(rt Runtime, a, b uint64) (int, error) {
	for i := int64(0); ; i++ {
		ca, err := LoadU8(rt, rt.Gep(a, i))
		if err != nil {
			return 0, err
		}
		cb, err := LoadU8(rt, rt.Gep(b, i))
		if err != nil {
			return 0, err
		}
		switch {
		case ca < cb:
			return -1, nil
		case ca > cb:
			return 1, nil
		case ca == 0:
			return 0, nil
		}
	}
}

// StoreBytes writes b through a single intrinsic-style check.
func StoreBytes(rt Runtime, dst uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	da, err := rt.MemIntr(dst, uint64(len(b)))
	if err != nil {
		return Trap(rt, err)
	}
	return Trap(rt, rt.Space().StoreBytes(da, b))
}

// AppendBytes reads n bytes through a single intrinsic-style check and
// appends them to dst, which comes back unchanged when the check or the
// access fails.
func AppendBytes(rt Runtime, dst []byte, src uint64, n uint64) ([]byte, error) {
	if n == 0 {
		return dst, nil
	}
	sa, err := rt.MemIntr(src, n)
	if err != nil {
		return dst, Trap(rt, err)
	}
	b, err := rt.Space().AppendBytes(dst, sa, n)
	return b, Trap(rt, err)
}

// LoadBytes reads n bytes through a single intrinsic-style check into a
// fresh slice.
func LoadBytes(rt Runtime, src uint64, n uint64) ([]byte, error) {
	return AppendBytes(rt, nil, src, n)
}
