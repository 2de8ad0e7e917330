// rootstore — the library's command-line front end.
//
//   rootstore audit <file>                hygiene + BR lint of a store file
//   rootstore lint <file>                 per-root lint findings
//   rootstore convert <in> <out>          translate formats (reports loss)
//   rootstore diff <a> <b>                compare two stores (roots + trust)
//   rootstore dataset export <dir>        write the scenario dataset
//   rootstore dataset verify <dir>        reload + verify a dataset
//   rootstore report <name>               table1..table7, fig1..fig4
//   rootstore query '<json>'              one-shot trust query (docs/SERVING.md)
//   rootstore serve                       NDJSON query server on loopback TCP
//   rootstore index build <out>           compile + persist the trust index
//   rootstore index append <file>         absorb new snapshots incrementally
//   rootstore index verify <file>         deep-verify a persisted index
//   rootstore formats                     list supported formats
//
// Every subcommand works on any supported serialization (sniffed from the
// content): certdata.txt, PEM bundle, JKS, RSTS.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "src/exec/thread_pool.h"

#include "src/analysis/hygiene.h"
#include "src/core/export.h"
#include "src/core/study.h"
#include "src/formats/cert_dir.h"
#include "src/formats/dataset_io.h"
#include "src/formats/jks.h"
#include "src/formats/pem_bundle.h"
#include "src/formats/portable.h"
#include "src/formats/sniff.h"
#include "src/obs/registry.h"
#include "src/query/engine.h"
#include "src/query/index_io.h"
#include "src/serve/server.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/user_agents.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/x509/lint.h"

namespace {

// Upper bound on every worker count: --threads and ROOTSTORE_THREADS.
constexpr std::size_t kMaxWorkers = 256;

int usage() {
  std::fputs(
      "usage: rootstore <command> [args]\n"
      "  audit <file>              hygiene audit + lint summary\n"
      "  lint <file>               per-root BR-style lint findings\n"
      "  convert <in> <out>        translate between store formats\n"
      "                            (out: .certdata/.rsts/.pem/.crt/.jks/.dir)\n"
      "  diff <a> <b>              compare two stores: roots only in one,\n"
      "                            per-purpose trust changes, Jaccard\n"
      "  dataset export <dir>      write the scenario's 670-snapshot dataset\n"
      "  dataset verify <dir>      reload and verify a dataset directory\n"
      "  report <name> [--csv] [--threads N] [--from DIR]\n"
      "         [--trace-out FILE] [--metrics-out FILE]\n"
      "                            table1..table7, fig1..fig4, agreement,\n"
      "                            exclusivity, ct_landscape; --threads N\n"
      "                            (or env ROOTSTORE_THREADS) builds the\n"
      "                            per-provider membership rows on N worker\n"
      "                            threads with byte-identical output\n"
      "                            (0 = serial; every analysis runs inline);\n"
      "                            --from DIR decodes the database from a\n"
      "                            `dataset export` directory through the\n"
      "                            real format parsers (same report bytes);\n"
      "                            --trace-out writes a Chrome trace_event\n"
      "                            JSON (env ROOTSTORE_TRACE works too) and\n"
      "                            --metrics-out a counters/stages JSON\n"
      "  query '<json>' [--threads N] [--from DIR] [--index FILE]\n"
      "                            answer one trust query (is_trusted,\n"
      "                            providers_trusting, store_at, diff,\n"
      "                            agent_store, lineage, stats, verify_chain,\n"
      "                            first_rejected_at, agreement_at,\n"
      "                            ct_coverage) without a\n"
      "                            server; --index FILE answers from a\n"
      "                            persisted index (no rebuild); see\n"
      "                            docs/SERVING.md\n"
      "  index build <out> [--from DIR] [--threads N]\n"
      "                            compile the trust index and persist it\n"
      "                            to <out> (RSIX; see docs/PERSISTENCE.md)\n"
      "  index append <file> [--from DIR]\n"
      "                            absorb snapshots newer than the index's\n"
      "                            coverage — O(delta), byte-identical to a\n"
      "                            full rebuild — and rewrite atomically\n"
      "  index verify <file>       structural + checksum + deep consistency\n"
      "                            verification of a persisted index\n"
      "  serve [--port N] [--threads K] [--cache N] [--port-file FILE]\n"
      "        [--from DIR] [--index FILE] [--watch-index]\n"
      "                            serve queries as newline-delimited JSON\n"
      "                            over loopback TCP (port 0 = ephemeral;\n"
      "                            the bound port is printed and optionally\n"
      "                            written to FILE after listen succeeds);\n"
      "                            SIGINT drains in-flight requests and\n"
      "                            exits 0; --index FILE cold-starts from a\n"
      "                            persisted index instead of rebuilding\n"
      "                            from snapshots, enables the reload_index\n"
      "                            op, and with --watch-index hot-swaps the\n"
      "                            engine when FILE changes on disk\n"
      "  formats                   list supported serializations\n"
      "--threads N and ROOTSTORE_THREADS take 0..256 worker threads.\n",
      stderr);
  return 2;
}

int die(const std::string& message) {
  std::fprintf(stderr, "rootstore: %s\n", message.c_str());
  return 1;
}

// Reads `text` into `out` as a decimal integer in 0..max: digits only, so
// a sign, junk or trailing characters are rejected.  On failure prints one
// line naming `flag`; callers then exit 2 before starting any work.
bool parse_count(std::string_view flag, std::string_view text,
                 std::size_t max, std::size_t& out) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value > max) {
    std::fprintf(stderr, "rootstore: %.*s must be an integer 0..%zu, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(), max,
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  out = value;
  return true;
}

int cmd_formats() {
  std::puts("certdata.txt  NSS PKCS#11 object grammar (full trust fidelity)");
  std::puts("RSTS          portable trust serialization (full trust fidelity)");
  std::puts("PEM bundle    bare certificates (trust metadata LOST)");
  std::puts("JKS v2        Java keystore (trust metadata LOST)");
  std::puts("cert dir      one PEM/DER file per root (trust metadata LOST)");
  std::puts("authroot.stl  Microsoft CTL, via the library API "
            "(rs::formats::parse_authroot)");
  return 0;
}

int cmd_audit(const std::string& path) {
  auto store = rs::formats::load_any_store(path);
  if (!store.ok()) return die(store.error());
  const auto& entries = store.value().entries;
  const auto now = rs::util::Date::ymd(2021, 5, 1);

  std::size_t tls = 0, email = 0, codesign = 0, partial = 0;
  std::size_t expired = 0, weak = 0, md5 = 0;
  int lint_total = 0;
  rs::x509::LintOptions opts;
  opts.now = now;
  for (const auto& e : entries) {
    if (e.is_tls_anchor()) ++tls;
    if (e.is_anchor_for(rs::store::TrustPurpose::kEmailProtection)) ++email;
    if (e.is_anchor_for(rs::store::TrustPurpose::kCodeSigning)) ++codesign;
    if (e.is_partially_distrusted_tls()) ++partial;
    if (e.certificate->is_expired_at(now)) ++expired;
    if (e.certificate->has_weak_rsa_key()) ++weak;
    if (e.certificate->has_md5_signature()) ++md5;
    lint_total += rs::x509::lint_score(rs::x509::lint_root(*e.certificate, opts));
  }
  rs::util::TextTable t({"Metric", "Value"});
  t.set_align(1, rs::util::Align::kRight);
  t.add_row({"roots", std::to_string(entries.size())});
  t.add_row({"TLS anchors", std::to_string(tls)});
  t.add_row({"email-protection anchors", std::to_string(email)});
  t.add_row({"code-signing anchors", std::to_string(codesign)});
  t.add_row({"partial TLS distrust entries", std::to_string(partial)});
  t.add_row({"expired (at 2021-05-01)", std::to_string(expired)});
  t.add_row({"RSA < 2048", std::to_string(weak)});
  t.add_row({"MD5 signatures", std::to_string(md5)});
  t.add_row({"aggregate lint score", std::to_string(lint_total)});
  t.add_row({"parse warnings", std::to_string(store.value().warnings.size())});
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_lint(const std::string& path) {
  auto store = rs::formats::load_any_store(path);
  if (!store.ok()) return die(store.error());
  int findings_total = 0;
  for (const auto& e : store.value().entries) {
    const auto findings = rs::x509::lint_root(*e.certificate);
    if (findings.empty()) continue;
    findings_total += static_cast<int>(findings.size());
    std::printf("%s (%s...)\n",
                std::string(
                    e.certificate->subject().common_name().value_or("?"))
                    .c_str(),
                e.certificate->short_id().c_str());
    for (const auto& f : findings) {
      std::printf("  [%s] %s: %s\n", rs::x509::to_string(f.severity),
                  f.check.c_str(), f.message.c_str());
    }
  }
  std::printf("%d finding(s) across %zu root(s)\n", findings_total,
              store.value().entries.size());
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  auto store = rs::formats::load_any_store(in);
  if (!store.ok()) return die(store.error());
  const auto& entries = store.value().entries;

  std::size_t cutoffs = 0, restricted = 0;
  for (const auto& e : entries) {
    if (e.is_partially_distrusted_tls()) ++cutoffs;
    const auto anchor = [&e](auto p) { return e.is_anchor_for(p); };
    if (!std::ranges::all_of(rs::store::kAllPurposes, anchor)) ++restricted;
  }

  namespace fs = std::filesystem;
  bool lossy = false;
  bool ok = false;
  if (rs::util::ends_with(out, ".certdata")) {
    std::ofstream f(out, std::ios::binary);
    f << rs::formats::write_certdata(entries);
    ok = static_cast<bool>(f);
  } else if (rs::util::ends_with(out, ".rsts")) {
    std::ofstream f(out, std::ios::binary);
    f << rs::formats::write_rsts(entries);
    ok = static_cast<bool>(f);
  } else if (rs::util::ends_with(out, ".pem") ||
             rs::util::ends_with(out, ".crt")) {
    lossy = true;
    std::ofstream f(out, std::ios::binary);
    f << rs::formats::write_pem_bundle(entries);
    ok = static_cast<bool>(f);
  } else if (rs::util::ends_with(out, ".jks")) {
    lossy = true;
    const auto blob =
        rs::formats::write_jks(entries, rs::util::Date::ymd(2021, 5, 1));
    std::ofstream f(out, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    ok = static_cast<bool>(f);
  } else if (rs::util::ends_with(out, ".dir")) {
    lossy = true;
    fs::create_directories(out);
    ok = true;
    for (const auto& file : rs::formats::write_cert_dir(entries)) {
      std::ofstream f(fs::path(out) / file.name, std::ios::binary);
      f << file.content;
      ok = ok && static_cast<bool>(f);
    }
  } else {
    return die("unknown target format: " + out);
  }
  if (!ok) return die("write failed: " + out);
  std::printf("%zu roots -> %s\n", entries.size(), out.c_str());
  if (lossy && cutoffs > 0) {
    std::printf("WARNING: %zu partial-distrust cutoff(s) lost in this "
                "format (see formats/portable.h for one that keeps them)\n",
                cutoffs);
  }
  if (lossy && restricted > 0) {
    std::printf("WARNING: purpose restrictions on %zu root(s) lost in this "
                "format\n",
                restricted);
  }
  return 0;
}

// "3e3ae09a  Corpus Root 1": short fingerprint and common name.
std::string root_label(const rs::store::TrustEntry& e) {
  return e.certificate->short_id() + "  " +
         std::string(e.certificate->subject().common_name().value_or("?"));
}

// "server-auth=trusted-delegator email-protection=must-verify ...", with
// any partial-distrust cutoff as "(until DATE)".
std::string describe_trust(const rs::store::TrustEntry& e) {
  std::string out;
  for (const auto p : rs::store::kAllPurposes) {
    const auto& t = e.trust_for(p);
    if (!out.empty()) out += " ";
    out += std::string(rs::store::to_string(p)) + "=" +
           rs::store::to_string(t.level);
    if (t.distrust_after) {
      out += "(until " + t.distrust_after->to_string() + ")";
    }
  }
  return out;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  auto a = rs::formats::load_any_store(a_path);
  auto b = rs::formats::load_any_store(b_path);
  if (!a.ok()) return die(a.error());
  if (!b.ok()) return die(b.error());
  // Keyed by SHA-256 so every listing comes out in fingerprint order.
  using Roots = std::map<rs::crypto::Sha256Digest, const rs::store::TrustEntry*>;
  Roots a_roots, b_roots;
  for (const auto& e : a.value().entries) a_roots[e.certificate->sha256()] = &e;
  for (const auto& e : b.value().entries) b_roots[e.certificate->sha256()] = &e;
  std::printf("%s: %zu roots\n%s: %zu roots\n", a_path.c_str(), a_roots.size(),
              b_path.c_str(), b_roots.size());

  std::size_t only_a = 0, only_b = 0, changed = 0;
  std::printf("only in A:\n");
  for (const auto& [fp, e] : a_roots) {
    if (b_roots.contains(fp)) continue;
    ++only_a;
    std::printf("  - %s\n", root_label(*e).c_str());
  }
  std::printf("only in B:\n");
  for (const auto& [fp, e] : b_roots) {
    if (a_roots.contains(fp)) continue;
    ++only_b;
    std::printf("  + %s\n", root_label(*e).c_str());
  }
  // Same root, different trust: what a lossy conversion silently changes.
  std::printf("trust changes:\n");
  for (const auto& [fp, ea] : a_roots) {
    const auto it = b_roots.find(fp);
    if (it == b_roots.end()) continue;
    const auto& eb = *it->second;
    const auto same = [&](auto p) { return ea->trust_for(p) == eb.trust_for(p); };
    if (std::ranges::all_of(rs::store::kAllPurposes, same)) continue;
    ++changed;
    std::printf("  ~ %s\n      A: %s\n      B: %s\n", root_label(*ea).c_str(),
                describe_trust(*ea).c_str(), describe_trust(eb).c_str());
  }
  const std::size_t shared = a_roots.size() - only_a;
  const std::size_t all = shared + only_a + only_b;
  std::printf("only in A: %zu   only in B: %zu   shared: %zu   trust changes: "
              "%zu   jaccard distance: %.3f\n",
              only_a, only_b, shared, changed,
              all == 0 ? 0.0
                       : 1.0 - static_cast<double>(shared) /
                                   static_cast<double>(all));
  return 0;
}

int cmd_dataset(const std::string& verb, const std::string& dir) {
  if (verb == "export") {
    auto scenario = rs::synth::build_paper_scenario();
    auto written = rs::formats::write_dataset(scenario.database(), dir);
    if (!written.ok()) return die(written.error());
    std::printf("wrote %zu snapshots to %s\n",
                scenario.database().total_snapshots(), dir.c_str());
    return 0;
  }
  if (verb == "verify") {
    auto loaded = rs::formats::load_dataset(dir);
    if (!loaded.ok()) return die(loaded.error());
    std::printf("ok: %zu providers, %zu snapshots\n",
                loaded.value().provider_count(),
                loaded.value().total_snapshots());
    return 0;
  }
  return usage();
}

// Serialize the observability registry to `path` using `serialize`
// (to_chrome_trace or to_json).  Returns false on I/O failure.
bool write_observability(const std::string& path,
                         std::string (rs::obs::Registry::*serialize)() const) {
  std::ofstream f(path, std::ios::binary);
  f << (rs::obs::Registry::global().*serialize)();
  return static_cast<bool>(f);
}

int cmd_report(const std::string& name, bool csv, std::size_t threads,
               const std::string& from_dir, const std::string& trace_out,
               const std::string& metrics_out) {
  // Tracing must be live before the study is built so decoder, interner,
  // and pool spans land in the output.  (ROOTSTORE_TRACE already enabled
  // the registry at first access; this covers the explicit flags.)
  if (!trace_out.empty() || !metrics_out.empty()) {
    rs::obs::Registry::global().enable();
  }
  rs::core::StudyOptions options;
  options.num_threads = threads;
  auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  if (!from_dir.empty()) {
    // Run the paper's actual pipeline shape: decode stored snapshots
    // (rootstore dataset export <dir>) through the real parsers, then
    // analyze the decoded database.  RSTS round-trips the full trust
    // model, so the reports are byte-identical either way — pinned by
    // tests/analysis/golden_report_test.cpp.
    auto loaded = rs::formats::load_dataset(from_dir);
    if (!loaded.ok()) return die(loaded.error());
    scenario.replace_database(std::move(loaded.value()));
  }
  rs::core::EcosystemStudy study(std::move(scenario), options);
  if (csv) {
    if (name == "fig1") {
      std::fputs(rs::core::figure1_csv(study).c_str(), stdout);
    } else if (name == "fig3") {
      std::fputs(rs::core::figure3_csv(study).c_str(), stdout);
    } else if (name == "fig4") {
      std::fputs(rs::core::figure4_csv(study).c_str(), stdout);
    } else if (name == "churn") {
      std::fputs(rs::core::churn_csv(study).c_str(), stdout);
    } else {
      return die("no CSV export for '" + name + "'");
    }
  }
  std::string out;
  if (csv) {
    // CSV output already went to stdout above; fall through to the
    // observability flush below.
  } else if (name == "table1") out = study.report_table1();
  else if (name == "table2") out = study.report_table2();
  else if (name == "table3") out = study.report_table3();
  else if (name == "table4") out = study.report_table4();
  else if (name == "table5") out = study.report_table5();
  else if (name == "table6") out = study.report_table6();
  else if (name == "table7") out = study.report_table7();
  else if (name == "fig1") out = study.report_figure1();
  else if (name == "fig2") out = study.report_figure2();
  else if (name == "fig3") out = study.report_figure3();
  else if (name == "fig4") out = study.report_figure4();
  else if (name == "agreement") out = study.report_agreement();
  else if (name == "exclusivity") out = study.report_exclusivity();
  else if (name == "ct_landscape") out = study.report_ct_landscape();
  else return die("unknown report '" + name + "'");
  std::fputs(out.c_str(), stdout);

  if (!trace_out.empty() &&
      !write_observability(trace_out, &rs::obs::Registry::to_chrome_trace)) {
    return die("cannot write trace file: " + trace_out);
  }
  if (!metrics_out.empty() &&
      !write_observability(metrics_out, &rs::obs::Registry::to_json)) {
    return die("cannot write metrics file: " + metrics_out);
  }
  return 0;
}

// Materializes the database the query/serve engines answer from: the
// curated paper scenario, or a `dataset export` directory decoded through
// the real parsers when `from_dir` is given (same bytes either way).
rs::util::Result<rs::store::StoreDatabase> load_query_database(
    const std::string& from_dir) {
  if (!from_dir.empty()) {
    auto loaded = rs::formats::load_dataset(from_dir);
    if (!loaded.ok()) return loaded;
    return std::move(loaded).take();
  }
  auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  rs::store::StoreDatabase db = scenario.database();
  return db;
}

// Builds the engine either the expensive way (decode + intern + index
// build from a database) or the cold-start way (load a persisted index).
rs::util::Result<rs::query::QueryEngine> make_engine(
    const std::string& from_dir, const std::string& index_file,
    std::size_t threads) {
  using R = rs::util::Result<rs::query::QueryEngine>;
  if (!index_file.empty()) {
    auto loaded = rs::query::TrustIndexIO::load_file(index_file);
    if (!loaded.ok()) return R::err(index_file + ": " + loaded.message());
    return rs::query::QueryEngine(std::move(loaded).take(),
                                  rs::synth::user_agent_population());
  }
  auto db = load_query_database(from_dir);
  if (!db.ok()) return db.propagate<rs::query::QueryEngine>();
  rs::exec::ThreadPool build_pool(threads);
  return rs::query::QueryEngine(db.value(), rs::synth::user_agent_population(),
                                &build_pool);
}

int cmd_query(const std::string& request, std::size_t threads,
              const std::string& from_dir, const std::string& index_file) {
  auto engine = make_engine(from_dir, index_file, threads);
  if (!engine.ok()) return die(engine.error());
  const std::string response = engine.value().handle_json(request);
  std::printf("%s\n", response.c_str());
  // Scripting contract: exit 0 for any answered query (including typed
  // not_covered), 1 only for error responses.
  return rs::query::QueryEngine::is_error_response(response) ? 1 : 0;
}

int cmd_index_build(const std::string& out, const std::string& from_dir,
                    std::size_t threads) {
  auto db = load_query_database(from_dir);
  if (!db.ok()) return die(db.error());
  rs::exec::ThreadPool pool(threads);
  const auto index = rs::query::TrustIndex::build(
      db.value(), rs::store::CertInterner::from_database(db.value()), &pool);
  auto written = rs::query::TrustIndexIO::write_file(index, out);
  if (!written.ok()) return die(written.error());
  std::printf("wrote %s: %zu provider(s), %zu certificate(s), "
              "%zu resolution point(s), %llu bytes\n",
              out.c_str(), index.provider_count(), index.interner().size(),
              index.resolution_point_count(),
              static_cast<unsigned long long>(written.value()));
  return 0;
}

int cmd_index_append(const std::string& path, const std::string& from_dir) {
  auto loaded = rs::query::TrustIndexIO::load_file(path);
  if (!loaded.ok()) return die(path + ": " + loaded.message());
  auto index = std::move(loaded).take();
  auto db = load_query_database(from_dir);
  if (!db.ok()) return die(db.error());
  auto appended = rs::query::TrustIndexIO::append_from_database(index,
                                                                db.value());
  if (!appended.ok()) return die(appended.error());
  if (appended.value() == 0) {
    std::printf("%s already covers every snapshot; nothing to do\n",
                path.c_str());
    return 0;
  }
  auto written = rs::query::TrustIndexIO::write_file(index, path);
  if (!written.ok()) return die(written.error());
  std::printf("appended %zu snapshot(s) to %s (%llu bytes)\n",
              appended.value(), path.c_str(),
              static_cast<unsigned long long>(written.value()));
  return 0;
}

int cmd_index_verify(const std::string& path) {
  auto stats = rs::query::TrustIndexIO::verify_file(path);
  if (!stats.ok()) return die(path + ": " + stats.message());
  const auto& s = stats.value();
  std::printf("ok: %llu provider(s), %llu certificate(s), "
              "%llu resolution point(s), %llu interval(s), %llu bytes\n",
              static_cast<unsigned long long>(s.providers),
              static_cast<unsigned long long>(s.certificates),
              static_cast<unsigned long long>(s.resolution_points),
              static_cast<unsigned long long>(s.intervals),
              static_cast<unsigned long long>(s.bytes));
  return 0;
}

// SIGINT/SIGTERM latch for `rootstore serve`: the handler writes one byte
// into a self-pipe; the main thread blocks on the read end and runs the
// graceful drain when it wakes (only async-signal-safe calls in the
// handler itself).
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void handle_shutdown_signal(int) {
  const char byte = 1;
  // Best-effort: a full pipe means a shutdown is already pending.
  [[maybe_unused]] const ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}

// Writes `port` into `path` atomically: temp file, fsync, rename.  A
// concurrently polling reader either sees no file or the complete port —
// never a partial write — and a crash mid-write leaves no torn file.
bool write_port_file_atomic(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string text = std::to_string(port) + "\n";
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0 ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

// Serve tail: install the signal latch, publish the port file (only now —
// listen(2) has already succeeded inside start(), so the file never names a
// dead socket), block until SIGINT/SIGTERM, drain, report.
int serve_until_signal(rs::serve::Server& server, std::uint16_t bound_port,
                       const std::string& port_file, std::size_t threads,
                       std::size_t cache) {
  if (pipe(g_shutdown_pipe) != 0) return die("cannot create signal pipe");
  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  if (!port_file.empty() && !write_port_file_atomic(port_file, bound_port)) {
    return die("cannot write port file: " + port_file);
  }
  std::printf("listening 127.0.0.1:%u (threads=%zu cache=%zu)\n",
              static_cast<unsigned>(bound_port), threads, cache);
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.stop();
  const rs::serve::ServerStats stats = server.stats();
  std::printf("drained: %llu request(s) over %llu connection(s), "
              "%llu cache hit(s), %llu error(s)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.errors));
  return 0;
}

int cmd_serve(std::uint16_t port, std::size_t threads, std::size_t cache,
              const std::string& port_file, const std::string& from_dir,
              const std::string& index_file, bool watch_index) {
  if (watch_index && index_file.empty()) {
    return die("--watch-index requires --index FILE");
  }
  // A stale port file from an earlier run poisons waiting clients: remove
  // it up front so a reader only ever sees the port of THIS process.
  if (!port_file.empty()) ::unlink(port_file.c_str());

  auto made = make_engine(from_dir, index_file, threads);
  if (!made.ok()) return die(made.error());

  rs::serve::ServerOptions options;
  options.port = port;
  options.num_threads = threads;
  options.cache_capacity = cache;
  if (!index_file.empty()) {
    // Reloading re-reads the persisted index: cheap relative to a rebuild,
    // and exactly what `--watch-index` watches.
    options.reload_factory = [index_file]()
        -> rs::util::Result<
            std::shared_ptr<const rs::query::QueryEngine>> {
      using R =
          rs::util::Result<std::shared_ptr<const rs::query::QueryEngine>>;
      auto loaded = rs::query::TrustIndexIO::load_file(index_file);
      if (!loaded.ok()) return R::err(index_file + ": " + loaded.message());
      return std::make_shared<const rs::query::QueryEngine>(
          std::move(loaded).take(), rs::synth::user_agent_population());
    };
    if (watch_index) options.watch_path = index_file;
  }
  rs::serve::Server server(
      std::make_shared<const rs::query::QueryEngine>(std::move(made).take()),
      options);
  auto bound = server.start();
  if (!bound.ok()) return die(bound.error());
  return serve_until_signal(server, bound.value(), port_file, threads, cache);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd == "formats") return cmd_formats();
  if (cmd == "audit" && args.size() == 2) return cmd_audit(args[1]);
  if (cmd == "lint" && args.size() == 2) return cmd_lint(args[1]);
  if (cmd == "convert" && args.size() == 3) return cmd_convert(args[1], args[2]);
  if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
  if (cmd == "dataset" && args.size() == 3) return cmd_dataset(args[1], args[2]);
  if (cmd == "report" && args.size() >= 2) {
    // Default worker count from the environment; --threads overrides.
    std::size_t threads = 0;
    // Startup-only read on the main thread (CLI flag default): safe.
    const char* threads_env = std::getenv("ROOTSTORE_THREADS");  // NOLINT(concurrency-mt-unsafe)
    if (threads_env != nullptr && threads_env[0] != '\0' &&
        !parse_count("ROOTSTORE_THREADS", threads_env, kMaxWorkers, threads)) {
      return 2;
    }
    bool csv = false;
    // ROOTSTORE_TRACE doubles as a default trace destination; the registry
    // itself also honours it for enablement at first access.
    std::string from_dir;
    std::string trace_out;
    std::string metrics_out;
    // Startup-only read on the main thread (CLI flag default): safe.
    if (const char* env = std::getenv("ROOTSTORE_TRACE")) {  // NOLINT(concurrency-mt-unsafe)
      if (env[0] != '\0') trace_out = env;
    }
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--csv") {
        csv = true;
      } else if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_count("--threads", args[++i], kMaxWorkers, threads)) {
          return 2;
        }
      } else if (args[i] == "--from" && i + 1 < args.size()) {
        from_dir = args[++i];
      } else if (args[i] == "--trace-out" && i + 1 < args.size()) {
        trace_out = args[++i];
      } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
        metrics_out = args[++i];
      } else {
        return usage();
      }
    }
    return cmd_report(args[1], csv, threads, from_dir, trace_out, metrics_out);
  }
  if (cmd == "query" && args.size() >= 2) {
    std::size_t threads = 0;
    std::string from_dir;
    std::string index_file;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_count("--threads", args[++i], kMaxWorkers, threads)) {
          return 2;
        }
      } else if (args[i] == "--from" && i + 1 < args.size()) {
        from_dir = args[++i];
      } else if (args[i] == "--index" && i + 1 < args.size()) {
        index_file = args[++i];
      } else {
        return usage();
      }
    }
    return cmd_query(args[1], threads, from_dir, index_file);
  }
  if (cmd == "index" && args.size() >= 3) {
    const std::string& verb = args[1];
    const std::string& path = args[2];
    std::size_t threads = 0;
    std::string from_dir;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_count("--threads", args[++i], kMaxWorkers, threads)) {
          return 2;
        }
      } else if (args[i] == "--from" && i + 1 < args.size()) {
        from_dir = args[++i];
      } else {
        return usage();
      }
    }
    if (verb == "build") return cmd_index_build(path, from_dir, threads);
    if (verb == "append") return cmd_index_append(path, from_dir);
    if (verb == "verify" && args.size() == 3) return cmd_index_verify(path);
    return usage();
  }
  if (cmd == "serve") {
    std::size_t port = 0;
    std::size_t threads = 4;
    std::size_t cache = 1024;
    std::string port_file;
    std::string from_dir;
    std::string index_file;
    bool watch_index = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--port" && i + 1 < args.size()) {
        if (!parse_count("--port", args[++i], 65535, port)) return 2;
      } else if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_count("--threads", args[++i], kMaxWorkers, threads)) {
          return 2;
        }
      } else if (args[i] == "--cache" && i + 1 < args.size()) {
        if (!parse_count("--cache", args[++i], UINT32_MAX, cache)) return 2;
      } else if (args[i] == "--port-file" && i + 1 < args.size()) {
        port_file = args[++i];
      } else if (args[i] == "--from" && i + 1 < args.size()) {
        from_dir = args[++i];
      } else if (args[i] == "--index" && i + 1 < args.size()) {
        index_file = args[++i];
      } else if (args[i] == "--watch-index") {
        watch_index = true;
      } else {
        return usage();
      }
    }
    return cmd_serve(static_cast<std::uint16_t>(port), threads, cache,
                     port_file, from_dir, index_file, watch_index);
  }
  return usage();
}
