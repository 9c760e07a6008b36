// The SHA-256 compression kernels behind crypto::Sha256.  Private to
// jenga_crypto, its tests and its microbenchmarks; callers hash through
// crypto/sha256.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace jenga::crypto::sha256_kernel {

/// Folds `blocks` consecutive 64-byte message blocks starting at `data` into
/// the eight state words (FIPS 180-4 §6.2.2).  `data` needs no alignment.
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

/// Portable C++: the only kernel on CPUs and builds without the SHA
/// extensions, and the reference the tests hold the hardware kernel to.
void compress_portable(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

/// The x86 SHA-extension kernel when this build targets x86 and CPUID reports
/// SHA, SSSE3 and SSE4.1; nullptr otherwise.  Sha256 uses it whenever it is
/// non-null.
[[nodiscard]] Compress sha_extensions();

/// One-shot SHA-256 that runs only compress_portable, for comparing against
/// the dispatched crypto::sha256().
[[nodiscard]] Hash256 sha256_portable(std::span<const std::uint8_t> data);

}  // namespace jenga::crypto::sha256_kernel
