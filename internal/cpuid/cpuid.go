// Package cpuid probes, once at init, which vector instruction sets the CPU
// has and the operating system saves the registers of. It is the one source
// of the choice between the Go bodies and the assembly ones in
// internal/apps/tile (the kernels: AVX2, and AVX-512 for MulSub and MinPlus)
// and internal/block (the checksum: AVX2 and AVX-512).
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches; AVX512 whether it also has AVX-512 F and DQ and
// the OS saves the opmask and ZMM registers. Both are false off amd64.
var AVX2, AVX512 = detect()
