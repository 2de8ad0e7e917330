#include "src/formats/read_all.h"

#include <algorithm>
#include <array>
#include <istream>

namespace rs::formats::detail {

std::optional<std::string> read_all(std::istream& in) {
  // A regular file's remaining size (0 for a directory, a pipe's queued
  // bytes) is a capacity guess that spares the regrowth copies.  It is
  // never a bound: the loop reads to end of stream whatever the guess,
  // and the cap keeps a file that reports an absurd size from failing
  // the reservation.
  constexpr std::streamsize kMaxGuess = std::streamsize{64} << 20;
  std::string content;
  content.reserve(static_cast<std::size_t>(
      std::clamp<std::streamsize>(in.rdbuf()->in_avail(), 0, kMaxGuess)));
  std::array<char, 64 * 1024> chunk;
  do {
    in.read(chunk.data(), chunk.size());
    content.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  } while (in);
  // A read error (EISDIR, EIO) sets badbit; end of stream sets only
  // eofbit and failbit.
  if (in.bad()) return std::nullopt;
  return content;
}

}  // namespace rs::formats::detail
