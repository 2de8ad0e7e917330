// Internal helper wiring the format decoders into rs_obs.
//
// Every public parse entry point opens a "formats/<name>" span and feeds
// the shared decoder counters: bytes decoded, parse failures, parse
// warnings, certificates decoded (CertPool misses, each one parse) and
// certificates served from the pool.  The counters are added
// once per parse call, so all of it is a single atomic load when
// instrumentation is disabled.  Not part of the public formats API.
#pragma once

#include <cstddef>

#include "src/formats/cert_pool.h"
#include "src/formats/certdata.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/util/result.h"

namespace rs::formats::detail {

/// `before` is the pool's counts when this parse call began (zero for a
/// pool local to the call).
inline void note_parse(rs::obs::Span& span, std::size_t bytes,
                       const rs::util::Result<ParsedStore>& result,
                       const CertPool& pool, CertPool::Counts before = {}) {
  auto& reg = rs::obs::Registry::global();
  if (!reg.enabled()) return;
  reg.counter("formats.bytes_decoded").add(bytes);
  const CertPool::Counts now = pool.counts();
  reg.counter("formats.certs_decoded").add(now.parses - before.parses);
  reg.counter("formats.cert_pool_hits").add(now.hits - before.hits);
  if (!result.ok()) {
    reg.counter("formats.parse_failures").increment();
    return;
  }
  span.set_items(result.value().entries.size());
  reg.counter("formats.parse_warnings").add(result.value().warnings.size());
}

}  // namespace rs::formats::detail
