// MSQ_KERNEL_ISA_CLONES: compiles a hot kernel once per x86 ISA level via
// GCC's target_clones. The default CMake build targets baseline x86-64
// (SSE2), which caps vectorization at 2 doubles per register; the AVX2 /
// AVX-512 clones widen that to 4 / 8 and the glibc ifunc resolver picks
// the best one at load time. A cloned kernel must compute the same bits in
// every clone: keep FMA contraction out of its translation unit
// (-ffp-contract=off, see src/CMakeLists.txt) when it multiplies and adds.
//
// Sanitizer builds skip the cloning: target_clones emits glibc ifuncs,
// whose resolvers run during relocation — before the sanitizer runtime
// has initialized its TLS — and crash TSan-instrumented binaries at
// startup on some glibc versions. The default clone is bit-identical
// anyway, so sanitizer jobs lose nothing but speed.

#ifndef MSQ_COMMON_ISA_CLONES_H_
#define MSQ_COMMON_ISA_CLONES_H_

#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define MSQ_KERNEL_ISA_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MSQ_KERNEL_ISA_CLONES
#endif

#endif  // MSQ_COMMON_ISA_CLONES_H_
