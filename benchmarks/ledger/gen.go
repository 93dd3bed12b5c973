package main

import "encoding/binary"

// Input generation. Everything the program under test sees derives
// from -seed through these functions: the same seed gives the same op
// sequence, keys and value bytes.

const keyLen = 16

// rng is xorshift64, seeded through splitmix64 so nearby seeds and
// stream numbers give unrelated sequences.
type rng uint64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRNG(seed, stream uint64) rng {
	x := splitmix64(splitmix64(seed) + stream)
	if x == 0 {
		x = 1
	}
	return rng(x)
}

func (r *rng) next() uint64 {
	v := uint64(*r)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*r = rng(v)
	return v
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "delete", "scan"}

// mix is a traffic mix in percent; the four fields sum to 100.
type mix struct{ get, put, del, scan int }

type op struct {
	kind opKind
	key  int
}

// nextOp draws one operation: a uniform key in [0, keys) and an op
// kind by the mix, from a single 64-bit draw.
func (r *rng) nextOp(m mix, keys int) op {
	x := r.next()
	pct := int((x >> 40) % 100)
	o := op{key: int((x & (1<<40 - 1)) % uint64(keys))}
	switch {
	case pct < m.get:
		o.kind = opGet
	case pct < m.get+m.put:
		o.kind = opPut
	case pct < m.get+m.put+m.del:
		o.kind = opDelete
	default:
		o.kind = opScan
	}
	return o
}

// opSequence returns the first n ops of a stream (tests and the traced
// replay, which needs the same sequence twice).
func opSequence(seed, stream uint64, m mix, keys, n int) []op {
	r := newRNG(seed, stream)
	out := make([]op, n)
	for i := range out {
		out[i] = r.nextOp(m, keys)
	}
	return out
}

// putKey writes the 16-byte %016d form of i into dst without
// allocating.
func putKey(dst []byte, i int) []byte {
	dst = dst[:keyLen]
	for p := keyLen - 1; p >= 0; p-- {
		dst[p] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// Values are self-describing so a reader can check one without knowing
// which writer produced it: bytes [0,16) are the key, [16,24) the
// writer's version, and the rest a pattern seeded by (seed, key,
// version).
const valueHeader = keyLen + 8

func fillValue(dst []byte, key []byte, version, seed uint64) {
	copy(dst, key)
	binary.LittleEndian.PutUint64(dst[keyLen:], version)
	fillPattern(dst[valueHeader:], key, version, seed)
}

func patternSeed(key []byte, version, seed uint64) rng {
	k := binary.LittleEndian.Uint64(key[8:])
	return newRNG(seed^k, version)
}

func fillPattern(dst []byte, key []byte, version, seed uint64) {
	r := patternSeed(key, version, seed)
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, r.next())
		dst = dst[8:]
	}
	for i := range dst {
		dst[i] = byte(r.next())
	}
}

// checkValue verifies a value read back for key: right length, right
// key, and a pattern consistent with its embedded version. It returns
// the version.
func checkValue(v, key []byte, size int, seed uint64) (uint64, bool) {
	if len(v) != size || string(v[:keyLen]) != string(key) {
		return 0, false
	}
	version := binary.LittleEndian.Uint64(v[keyLen:])
	r := patternSeed(key, version, seed)
	p := v[valueHeader:]
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != r.next() {
			return version, false
		}
		p = p[8:]
	}
	for i := range p {
		if p[i] != byte(r.next()) {
			return version, false
		}
	}
	return version, true
}

// indexKeys are the Fig. 4 keys: n uniform 8-byte keys in [1, 8n], as
// pmembench draws them (duplicates included).
func indexKeys(seed uint64, n int) []uint64 {
	r := newRNG(seed, 0x1d)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.next()%uint64(8*n) + 1
	}
	return keys
}

func indexValue(key uint64) uint64 { return key*3 + 1 }
