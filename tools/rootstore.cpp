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
//   rootstore index verify <file>         load a persisted index, print stats
//   rootstore formats                     list supported formats
//
// Every subcommand works on any supported serialization (sniffed from the
// content): certdata.txt, PEM bundle, JKS, RSTS.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

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
#include "src/store/persist.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/user_agents.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/x509/lint.h"

namespace {

// Upper bound on every --threads worker count.
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
      "                            builds the per-provider membership rows\n"
      "                            on N worker threads with byte-identical\n"
      "                            output (0 and 1 both build them inline;\n"
      "                            every other analysis runs inline);\n"
      "                            --from DIR decodes the database from a\n"
      "                            `dataset export` directory through the\n"
      "                            real format parsers (same report bytes);\n"
      "                            --trace-out writes a Chrome trace_event\n"
      "                            JSON and --metrics-out a counters/stages\n"
      "                            JSON\n"
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
      "  index verify <file>       full structural + checksum load of a\n"
      "                            persisted index, then its stats\n"
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
      "--threads N takes 0..256 worker threads.\n",
      stderr);
  return 2;
}

int die(const std::string& message) {
  std::fprintf(stderr, "rootstore: %s\n", message.c_str());
  return 1;
}

// Reads `text` into `out` through rs::util::parse_count (digits only,
// 0..max).  On failure prints one line naming `flag`; callers then exit 2
// before starting any work.
bool parse_count(std::string_view flag, std::string_view text,
                 std::size_t max, std::size_t& out) {
  const auto value = rs::util::parse_count(text, max);
  if (!value) {
    std::fprintf(stderr, "rootstore: %.*s must be an integer 0..%zu, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(), max,
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  out = *value;
  return true;
}

// Every value a subcommand's flags set; each subcommand reads the ones its
// usage line lists.  Defaults are the unflagged values (serve overrides
// threads).
struct Flags {
  bool csv = false;
  bool watch_index = false;
  std::size_t threads = 0;
  std::size_t port = 0;
  std::size_t cache = 1024;
  std::string from_dir;
  std::string index_file;
  std::string port_file;
  std::string trace_out;
  std::string metrics_out;
};

// Parses `args` over `flags`, taking only the flags in `allowed` (one
// subcommand's usage line).  An unlisted flag or a missing value prints the
// usage, a bad count its parse_count line; either returns nullopt, and the
// caller exits 2 before starting any work.
std::optional<Flags> parse_flags(std::span<const std::string> args,
                                 std::initializer_list<std::string_view> allowed,
                                 Flags flags = {}) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const bool is_switch = flag == "--csv" || flag == "--watch-index";
    if (std::ranges::find(allowed, flag) == allowed.end() ||
        (!is_switch && i + 1 == args.size())) {
      usage();
      return std::nullopt;
    }
    bool ok = true;
    if (flag == "--csv") {
      flags.csv = true;
    } else if (flag == "--watch-index") {
      flags.watch_index = true;
    } else if (flag == "--threads") {
      ok = parse_count(flag, args[++i], kMaxWorkers, flags.threads);
    } else if (flag == "--port") {
      ok = parse_count(flag, args[++i], 65535, flags.port);
    } else if (flag == "--cache") {
      ok = parse_count(flag, args[++i], UINT32_MAX, flags.cache);
    } else if (flag == "--from") {
      flags.from_dir = args[++i];
    } else if (flag == "--index") {
      flags.index_file = args[++i];
    } else if (flag == "--port-file") {
      flags.port_file = args[++i];
    } else if (flag == "--trace-out") {
      flags.trace_out = args[++i];
    } else if (flag == "--metrics-out") {
      flags.metrics_out = args[++i];
    }
    if (!ok) return std::nullopt;
  }
  return flags;
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
    std::error_code ec;
    fs::create_directories(out, ec);
    if (ec) return die("cannot create " + out + ": " + ec.message());
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

int cmd_report(const std::string& name, const Flags& flags) {
  // Tracing must be live before the study is built so decoder, interner,
  // and pool spans land in the output.  (ROOTSTORE_TRACE already enabled
  // the registry at first access; this covers the explicit flags.)
  if (!flags.trace_out.empty() || !flags.metrics_out.empty()) {
    rs::obs::Registry::global().enable();
  }
  rs::core::StudyOptions options;
  options.num_threads = flags.threads;
  auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  if (!flags.from_dir.empty()) {
    // Run the paper's actual pipeline shape: decode stored snapshots
    // (rootstore dataset export <dir>) through the real parsers, then
    // analyze the decoded database.  RSTS round-trips the full trust
    // model, so the reports are byte-identical either way — pinned by
    // tests/analysis/golden_report_test.cpp.
    auto loaded = rs::formats::load_dataset(flags.from_dir);
    if (!loaded.ok()) return die(loaded.error());
    scenario.replace_database(std::move(loaded.value()));
  }
  rs::core::EcosystemStudy study(std::move(scenario), options);
  if (flags.csv) {
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
  if (flags.csv) {
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

  if (!flags.trace_out.empty() &&
      !write_observability(flags.trace_out,
                           &rs::obs::Registry::to_chrome_trace)) {
    return die("cannot write trace file: " + flags.trace_out);
  }
  if (!flags.metrics_out.empty() &&
      !write_observability(flags.metrics_out, &rs::obs::Registry::to_json)) {
    return die("cannot write metrics file: " + flags.metrics_out);
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
rs::util::Result<rs::query::QueryEngine> make_engine(const Flags& flags) {
  using R = rs::util::Result<rs::query::QueryEngine>;
  if (!flags.index_file.empty()) {
    auto loaded = rs::query::TrustIndexIO::load_file(flags.index_file);
    if (!loaded.ok()) {
      return R::err(flags.index_file + ": " + loaded.message());
    }
    return rs::query::QueryEngine(std::move(loaded).take(),
                                  rs::synth::user_agent_population());
  }
  auto db = load_query_database(flags.from_dir);
  if (!db.ok()) return db.propagate<rs::query::QueryEngine>();
  rs::exec::ThreadPool build_pool(flags.threads);
  return rs::query::QueryEngine(db.value(), rs::synth::user_agent_population(),
                                &build_pool);
}

int cmd_query(const std::string& request, const Flags& flags) {
  auto engine = make_engine(flags);
  if (!engine.ok()) return die(engine.error());
  const std::string response = engine.value().handle_json(request);
  std::printf("%s\n", response.c_str());
  // Scripting contract: exit 0 for any answered query (including typed
  // not_covered), 1 only for error responses.
  return rs::query::QueryEngine::is_error_response(response) ? 1 : 0;
}

int cmd_index_build(const std::string& out, const Flags& flags) {
  auto db = load_query_database(flags.from_dir);
  if (!db.ok()) return die(db.error());
  rs::exec::ThreadPool pool(flags.threads);
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

// Serve tail: install the signal latch, publish the port file (only now —
// listen(2) has already succeeded inside start(), so the file never names a
// dead socket), block until SIGINT/SIGTERM, drain, report.  The port file is
// written atomically (temp file, fsync, rename), so a polling reader sees
// either no file or the complete port, never a partial write.
int serve_until_signal(rs::serve::Server& server, std::uint16_t bound_port,
                       const Flags& flags) {
  if (pipe(g_shutdown_pipe) != 0) return die("cannot create signal pipe");
  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  if (!flags.port_file.empty()) {
    const auto written = rs::store::persist::atomic_write_file(
        flags.port_file, std::to_string(bound_port) + "\n");
    if (!written.ok()) {
      return die("cannot write port file: " + written.error());
    }
  }
  std::printf("listening 127.0.0.1:%u (threads=%zu cache=%zu)\n",
              static_cast<unsigned>(bound_port), flags.threads, flags.cache);
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

int cmd_serve(const Flags& flags) {
  const std::string& index_file = flags.index_file;
  if (flags.watch_index && index_file.empty()) {
    return die("--watch-index requires --index FILE");
  }
  // A stale port file from an earlier run poisons waiting clients: remove
  // it up front so a reader only ever sees the port of THIS process.
  if (!flags.port_file.empty()) ::unlink(flags.port_file.c_str());

  auto made = make_engine(flags);
  if (!made.ok()) return die(made.error());

  rs::serve::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.port);
  options.num_threads = flags.threads;
  options.cache_capacity = flags.cache;
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
    if (flags.watch_index) options.watch_path = index_file;
  }
  rs::serve::Server server(
      std::make_shared<const rs::query::QueryEngine>(std::move(made).take()),
      options);
  auto bound = server.start();
  if (!bound.ok()) return die(bound.error());
  return serve_until_signal(server, bound.value(), flags);
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
  const auto after = [&args](std::size_t n) {
    return std::span(args).subspan(n);
  };
  if (cmd == "report" && args.size() >= 2) {
    const auto flags = parse_flags(
        after(2),
        {"--csv", "--threads", "--from", "--trace-out", "--metrics-out"});
    return flags ? cmd_report(args[1], *flags) : 2;
  }
  if (cmd == "query" && args.size() >= 2) {
    const auto flags =
        parse_flags(after(2), {"--threads", "--from", "--index"});
    return flags ? cmd_query(args[1], *flags) : 2;
  }
  if (cmd == "index" && args.size() >= 3) {
    const std::string& verb = args[1];
    const std::string& path = args[2];
    if (verb == "build") {
      const auto flags = parse_flags(after(3), {"--from", "--threads"});
      return flags ? cmd_index_build(path, *flags) : 2;
    }
    if (verb == "append") {
      const auto flags = parse_flags(after(3), {"--from"});
      return flags ? cmd_index_append(path, flags->from_dir) : 2;
    }
    if (verb == "verify" && args.size() == 3) return cmd_index_verify(path);
    return usage();
  }
  if (cmd == "serve") {
    Flags defaults;
    defaults.threads = 4;
    const auto flags = parse_flags(after(1),
                                   {"--port", "--threads", "--cache",
                                    "--port-file", "--from", "--index",
                                    "--watch-index"},
                                   defaults);
    return flags ? cmd_serve(*flags) : 2;
  }
  return usage();
}
