/**
 * @file
 * The durable-file primitives of the process tier, written once: the
 * worker pipes, the results journal (exec/proc/journal.hh) and the
 * fleet's aggregate checkpoint all go through these. Every call
 * retries EINTR; a failure leaves errno describing it.
 */

#ifndef DORA_EXEC_FILE_IO_HH
#define DORA_EXEC_FILE_IO_HH

#include <string>
#include <string_view>

namespace dora
{

/** write() every byte of @p bytes to @p fd; false on an I/O error. */
bool writeAll(int fd, std::string_view bytes);

/** Append everything from @p fd's offset to EOF to @p out. */
bool readAll(int fd, std::string *out);

/** Whole-file read; false when the file is absent or unreadable. */
bool readFile(const std::string &path, std::string *out);

/**
 * Replace @p path with @p bytes through `<path>.tmp`: write, fsync,
 * rename, so a kill at any instant leaves the old file or the new
 * one, never a mix.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

} // namespace dora

#endif // DORA_EXEC_FILE_IO_HH
