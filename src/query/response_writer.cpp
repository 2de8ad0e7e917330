#include "src/query/response_writer.h"

#include "src/store/id_set.h"
#include "src/store/interner.h"

namespace rs::query {

void ResponseWriter::roots(const rs::store::IdSet& ids,
                           const rs::store::CertInterner& interner) {
  separate();
  const std::vector<std::uint32_t> members = ids.ids();
  const std::size_t at = out_.size();
  out_.resize(at + 2 + (members.empty() ? 0 : members.size() * 67 - 1));
  char* p = out_.data() + at;
  *p++ = '[';
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) *p++ = ',';
    *p++ = '"';
    p = rs::util::write_hex(p, interner.digest_of(members[i]));
    *p++ = '"';
  }
  *p = ']';
}

}  // namespace rs::query
