// Package corpus is the IR corpus of the ir_exec workload: the
// iv-sweep, stencil, kernel-param and const-geps kernels (copies of
// the strings private to internal/bench's elision experiment) and
// examples/compiler-pass/clean.ir.
package corpus

import "embed"

// Files holds the *.ir sources.
//
//go:embed *.ir
var Files embed.FS
