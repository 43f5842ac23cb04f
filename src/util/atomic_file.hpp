// Crash-safe, durable file output: write-to-temp, fsync, atomic rename,
// fsync the directory.
//
// The simulation tools write result files that downstream plotting and CI
// steps consume; a crash (or a watchdog abort racing a reader) must never
// leave a half-written file where a complete one is expected.  The content
// goes to a sibling temp file which is renamed over the target only after a
// successful flush and close, so readers observe either the previous
// version or the complete new one — never a torn write.
//
// Rename alone is not durability: POSIX rename() commits the *name* change
// atomically, but the renamed file's data may still sit in the page cache.
// A power loss between the rename and writeback can surface the new name
// with empty or torn contents — exactly the failure a result file must
// never exhibit.  So the temp file is fsync()ed before the rename (data
// reaches the disk first) and the containing directory is fsync()ed after
// (the rename itself reaches the disk), the classic write-ahead ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace es::util {

/// Writes `path` atomically and durably.  `producer` receives the output
/// stream and returns false to abort (e.g. a serialization error); on abort
/// or any I/O failure the temp file is removed, any previous version of
/// `path` is left intact, and the function returns false.
bool write_file_atomic(const std::string& path,
                       const std::function<bool(std::ostream&)>& producer);

/// Process-lifetime count of fsync() calls issued by write_file_atomic
/// (two per successful write: temp file + directory).  Lets tests assert
/// the durability path is actually exercised rather than silently skipped.
std::uint64_t atomic_file_fsyncs();

}  // namespace es::util
