package ir

import (
	"strings"
	"testing"
)

const sample = `
extern @ext_store8
func @main(%a) {
entry:
  %s = const 64
  %oid = pmalloc %s
  %p = direct %oid
  %q = gep %p, 8
  store.8 %q, %a
  %x = load.8 %q
  %i = ptrtoint %p
  %p2 = inttoptr %i
  %c = icmp.lt %x, %a
  condbr %c, more, done
more: !loop.bound 4
  %off = mul %x, %s
  %r = gep %p, %off
  %y = load.8 %r
  %z = callext @ext_store8, %p, %y
  br done
done:
  memcpy %p, %q, %s
  ret %x
}
`

func TestParseAndRoundTrip(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(m.Funcs))
	}
	if !m.Func("ext_store8").External {
		t.Error("extern not marked external")
	}
	f := m.Func("main")
	if len(f.Params) != 1 || f.Params[0] != "%a" {
		t.Errorf("params = %v", f.Params)
	}
	if f.Block("more").LoopBound != 4 {
		t.Errorf("loop bound = %d", f.Block("more").LoopBound)
	}
	// Round-trip: print, reparse, print again; must be stable.
	text1 := m.String()
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	if text2 := m2.String(); text1 != text2 {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", text1, text2)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, src string
	}{
		{"garbage", "hello world"},
		{"no header brace", "func @f()\nentry:\n ret\n}"},
		{"unknown op", "func @f() {\nentry:\n  frobnicate %x\n}"},
		{"bad const", "func @f() {\nentry:\n  %x = const zebra\n  ret %x\n}"},
		{"unterminated", "func @f() {\nentry:\n  ret"},
		{"instr before label", "func @f() {\n  ret\n}"},
		{"bad loop bound", "func @f() {\nentry: !loop.bound x\n  ret\n}"},
		{"branch to nowhere", "func @f() {\nentry:\n  br missing\n}"},
		{"misplaced terminator", "func @f() {\nentry:\n  ret\n  %x = const 1\n}"},
		{"bad size", "func @f(%p) {\nentry:\n  %x = load.3 %p\n  ret %x\n}"},
		{"call unknown", "func @f() {\nentry:\n  call @nope\n  ret\n}"},
		{"internal call to extern", "extern @e\nfunc @f() {\nentry:\n  call @e\n  ret\n}"},
		{"call target not @name", "func @g() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  call g\n  ret\n}"},
		{"call arity mismatch", "func @g(%a) {\nentry:\n  ret %a\n}\nfunc @f() {\nentry:\n  %r = call @g\n  ret %r\n}"},
		{"duplicate function", "func @f() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  ret\n}"},
		{"duplicate label", "func @f() {\nentry:\n  br next\nnext:\n  br next2\nnext:\n  ret\nnext2:\n  ret\n}"},
		{"undefined value ref", "func @f() {\nentry:\n  %x = add %a, %b\n  ret %x\n}"},
		{"undefined condbr cond", "func @f() {\nentry:\n  condbr %c, a, b\na:\n  ret\nb:\n  ret\n}"},
		{"trailing text after label", "func @f() {\nentry: junk\n  ret\n}"},
		{"bad gep offset", "func @f(%p) {\nentry:\n  %q = gep %p, zebra\n  ret\n}"},
		{"gep missing offset", "func @f(%p) {\nentry:\n  %q = gep %p\n  ret\n}"},
		{"condbr missing else", "func @f(%c) {\nentry:\n  condbr %c, a\na:\n  ret\n}"},
		{"trailing operands", "func @f() {\nentry:\n  br a, b\n}"},
		{"zero-size bound check", "func @f(%p) {\nentry:\n  %c = spp.checkbound %p\n  ret\n}"},
		{"flush arity", "func @f(%p) {\nentry:\n  flush %p, %p\n  ret\n}"},
		{"fence with operand", "func @f(%p) {\nentry:\n  fence %p\n  ret\n}"},
		{"store missing operands", "func @f() {\nentry:\n  store.1\n  ret\n}"},
		{"malloc missing size", "func @f() {\nentry:\n  %p = malloc\n  ret\n}"},
		{"add with three operands", "func @f(%a) {\nentry:\n  %x = add %a, %a, %a\n  ret\n}"},
		{"ret with two values", "func @f(%a) {\nentry:\n  ret %a, %a\n}"},
		{"result of a fence", "func @f() {\nentry:\n  %v = fence\n  ret %v\n}"},
		{"bad updatetag offset", "func @f(%p) {\nentry:\n  %q = spp.updatetag %p, zebra\n  ret\n}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Errorf("Parse succeeded on %q", tt.src)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Func("main").Blocks[0].Instrs[0].Imm = 999
	c.Func("main").Blocks[0].Instrs[3].Args[0] = "%other"
	if m.Func("main").Blocks[0].Instrs[0].Imm == 999 {
		t.Error("Imm aliased")
	}
	if m.Func("main").Blocks[0].Instrs[3].Args[0] == "%other" {
		t.Error("Args aliased")
	}
	if c.Func("main").Block("more").LoopBound != 4 {
		t.Error("LoopBound lost in clone")
	}
}

func TestVerifyCatchesEmptyFunction(t *testing.T) {
	m := &Module{Funcs: []*Func{{Name: "f"}}}
	if err := m.Verify(); err == nil {
		t.Error("empty function accepted")
	}
	m = &Module{Funcs: []*Func{{Name: "f", Blocks: []*Block{{Name: "entry"}}}}}
	if err := m.Verify(); err == nil {
		t.Error("empty block accepted")
	}
}

func TestInstrStringAnnotations(t *testing.T) {
	in := &Instr{Op: SppCheckBound, Dst: "%c", Args: []string{"%p"}, Size: 8, KnownPM: true}
	s := in.String()
	if !strings.Contains(s, "!pm") || !strings.Contains(s, "spp.checkbound.8") {
		t.Errorf("String = %q", s)
	}
	in2 := &Instr{Op: MemCpy, Args: []string{"%a", "%b", "%n"}, Wrapped: true}
	if !strings.Contains(in2.String(), "!wrapped") {
		t.Errorf("String = %q", in2.String())
	}
}

func TestParseFlushFence(t *testing.T) {
	src := `
func @f(%p, %v) {
entry:
  store.8 %p, %v
  flush %p
  fence
  ret %v
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	instrs := m.Func("f").Blocks[0].Instrs
	if instrs[1].Op != Flush || instrs[1].Args[0] != "%p" {
		t.Errorf("flush parsed as %s", instrs[1])
	}
	if instrs[2].Op != Fence || len(instrs[2].Args) != 0 {
		t.Errorf("fence parsed as %s", instrs[2])
	}
	// Round trip.
	text := m.String()
	if _, err := Parse(text); err != nil {
		t.Errorf("reparse: %v\n%s", err, text)
	}
}

func TestParseComments(t *testing.T) {
	src := `
; leading comment
func @f() { ; trailing
entry:
  %x = const 1 ; a constant
  ret %x
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("f") == nil {
		t.Error("function lost")
	}
}
