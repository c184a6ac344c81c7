// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding every record in the durable sequencer log. Chosen over
// plain CRC32 for its better error-detection properties on storage-sized
// payloads and because it is the de-facto log-framing checksum (RocksDB,
// LevelDB, ext4). Software table implementation — the log thread runs on
// its own thread off the pipeline hot path, so hardware acceleration is
// not worth a platform dependency here.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bohm {

/// Extends `crc` (initially 0 for a fresh checksum) with `n` bytes.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

/// One-shot convenience.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32c(0, data, n);
}

}  // namespace bohm
