// Package detsource is the fixture for the determinism-taint analyzer.
// This package stands in for a hot (output-producing) package; the helper
// subpackage stands in for cold module code whose taint must arrive here
// transitively through the facts layer.
package detsource

import (
	cryptorand "crypto/rand"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"runtime"
	"time"

	"comparenb/internal/analysis/testdata/src/detsource/helper"
)

// directClock reads the wall clock in a hot function.
func directClock() int64 {
	return time.Now().UnixNano() // want "nondeterminism source time.Now"
}

// directGlobalRand uses the package-level, globally seeded RNG.
func directGlobalRand(n int) int {
	return rand.Intn(n) // want "nondeterminism source math/rand.Intn"
}

// directGlobalRandV2 uses math/rand/v2's package-level, globally seeded
// RNG.
func directGlobalRandV2(n int) int {
	return randv2.IntN(n) // want "nondeterminism source math/rand/v2.IntN"
}

// directGlobalRandV2Word draws a raw word from the same global RNG.
func directGlobalRandV2Word() uint64 {
	return randv2.Uint64() // want "nondeterminism source math/rand/v2.Uint64"
}

// directEnv reads the process environment.
func directEnv() string {
	return os.Getenv("HOME") // want "nondeterminism source os.Getenv"
}

// directCryptoRand draws real entropy — sanctioned only in the serving
// layer's trace-id generator, never in an output-producing package.
func directCryptoRand() []byte {
	b := make([]byte, 16)
	_, _ = cryptorand.Read(b) // want "nondeterminism source crypto/rand.Read"
	return b
}

// directNumCPU observes the machine's core count.
func directNumCPU() int {
	return runtime.NumCPU() // want "nondeterminism source runtime.NumCPU"
}

// pointerFormat renders an address, which differs between runs.
func pointerFormat(v *int) string {
	return fmt.Sprintf("%p", v) // want "pointer addresses differ between runs"
}

// transitiveClock imports helper.Stamp's taint at the call site.
func transitiveClock() int64 {
	return helper.Stamp() // want "reaches nondeterminism source time.Now"
}

// transitiveTwoHops: the source is two calls down (helper.Indirect →
// helper.Stamp).
func transitiveTwoHops() int64 {
	return helper.Indirect() // want "reaches nondeterminism source time.Now"
}

// transitiveShuffle imports the global-RNG taint.
func transitiveShuffle(xs []int) {
	helper.Shuffle(xs) // want "reaches nondeterminism source math/rand.Shuffle"
}

// transitiveMapOrder: the helper leaks map iteration order into a slice.
func transitiveMapOrder(m map[string]int) []string {
	return helper.KeysUnsorted(m) // want "reaches nondeterminism source map iteration order"
}

// goodSeeded is deterministic: an explicit seed pins the sequence.
func goodSeeded(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// goodSeededPCG is deterministic: a PCG built and reseeded from explicit
// seeds, drawn through the Rand that wraps it.
func goodSeededPCG(seed uint64, n int) int {
	pcg := randv2.NewPCG(seed, 0)
	r := randv2.New(pcg)
	pcg.Seed(seed+1, 0)
	return r.IntN(n)
}

// goodSeededHelper: seeded randomness in the helper is not a source either.
func goodSeededHelper(seed int64) int {
	return helper.SeededPick(seed, 10)
}

// goodCleanHelper calls a deterministic helper.
func goodCleanHelper(a, b int) int {
	return helper.Clean(a, b)
}

// goodGomaxprocs: thread count is a free variable under the
// determinism-across-threads gate, so GOMAXPROCS is deliberately clean.
func goodGomaxprocs() int {
	return runtime.GOMAXPROCS(0)
}

// goodValueFormat formats values, not pointers.
func goodValueFormat(v int) string {
	return fmt.Sprintf("%d", v)
}

// hotCaller calls a tainted function in the same hot package: the finding
// lives at directClock's own source line, not here.
func hotCaller() int64 {
	return directClock()
}

// suppressedClock carries a justified suppression and must stay silent.
func suppressedClock() int64 {
	return time.Now().UnixNano() //nolint:detsource // fixture: sanctioned timing read
}
