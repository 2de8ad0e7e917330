#include "src/synth/chain_gen.h"

#include <cassert>
#include <cctype>
#include <optional>
#include <span>

#include "src/asn1/oid.h"
#include "src/crypto/prng.h"
#include "src/crypto/sha256.h"
#include "src/x509/builder.h"
#include "src/x509/extensions.h"
#include "src/x509/name.h"

namespace rs::synth {
namespace {

using rs::x509::Certificate;
using rs::x509::Name;

/// Deterministic 20-byte key identifier from a label.
std::vector<std::uint8_t> key_id_for(const std::string& label) {
  const auto digest = rs::crypto::Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  return {digest.begin(), digest.begin() + 20};
}

/// The SKI of `cert`, when it carries one (factory roots do not).
std::vector<std::uint8_t> ski_of(const Certificate& cert) {
  const auto* ext = rs::x509::find_extension(
      cert.extensions(), rs::asn1::oids::subject_key_id());
  if (ext == nullptr) return {};
  auto parsed = rs::x509::SubjectKeyIdentifier::parse(ext->value);
  return parsed.ok() ? parsed.value().key_id : std::vector<std::uint8_t>{};
}

/// A caseIgnoreMatch-equivalent but byte-different rendering: letters
/// upper-cased, inner spaces doubled, outer whitespace added.  Chaining
/// through such a name exercises Name::equivalent on the verify path.
Name mangled(const Name& name) {
  Name out;
  for (const auto& attr : name.attributes()) {
    std::string value = " ";
    for (const char c : attr.value) {
      value.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
      if (c == ' ') value.push_back(' ');
    }
    value.push_back(' ');
    out.add(attr.type, std::move(value), attr.kind);
  }
  return out;
}

struct CertOpts {
  bool leaf = false;  // explicit BC{false} + KU digitalSignature
  std::optional<std::int64_t> path_len;  // explicit BC{true, path_len}
  bool non_ca = false;                   // explicit BC{false}, CA key usage
  std::vector<rs::asn1::Oid> eku;
  std::vector<std::uint8_t> ski;
  std::vector<std::uint8_t> aki;
};

/// The one cert-minting path: deterministic serial/key material from the
/// generator seed + label, explicit extensions per `opts` (the builder
/// auto-adds CA BasicConstraints/KeyUsage when none are given).
std::shared_ptr<const Certificate> make_cert(std::uint64_t seed,
                                             const std::string& label,
                                             Name subject, Name issuer,
                                             rs::util::Date not_before,
                                             rs::util::Date not_after,
                                             const CertOpts& opts = {}) {
  rs::crypto::Prng rng = rs::crypto::Prng::from_label(seed, "chain:" + label);
  rs::x509::CertificateBuilder builder;
  builder.subject(std::move(subject))
      .issuer(std::move(issuer))
      .serial_number((rng.next() >> 16) | 1)
      .not_before(not_before)
      .not_after(not_after)
      .key_seed(rng.next());
  if (opts.leaf || opts.non_ca) {
    builder.add_extension({rs::asn1::oids::basic_constraints(), true,
                           rs::x509::BasicConstraints{false, {}}.encode()});
  } else if (opts.path_len) {
    builder.add_extension(
        {rs::asn1::oids::basic_constraints(), true,
         rs::x509::BasicConstraints{true, opts.path_len}.encode()});
  }
  if (opts.leaf) {
    rs::x509::KeyUsage ku;
    ku.digital_signature = true;
    builder.add_extension(
        {rs::asn1::oids::key_usage(), true, ku.encode()});
  }
  if (!opts.eku.empty()) builder.add_eku(opts.eku);
  if (!opts.ski.empty()) {
    builder.add_extension({rs::asn1::oids::subject_key_id(), false,
                           rs::x509::SubjectKeyIdentifier{opts.ski}.encode()});
  }
  if (!opts.aki.empty()) {
    builder.add_extension(
        {rs::asn1::oids::authority_key_id(), false,
         rs::x509::AuthorityKeyIdentifier{opts.aki}.encode()});
  }
  return std::make_shared<const Certificate>(builder.build());
}

Name ca_name(const std::string& cn, const std::string& org) {
  Name n;
  n.add_common_name(cn);
  n.add_organization(org);
  n.add_country("US");
  return n;
}

Name leaf_name(const std::string& cn) {
  Name n;
  n.add_common_name(cn);
  return n;
}

/// Builds the generic cases under one anchor.  All dates derive from the
/// anchor's validity so every case stays inside its window by default.
class CaseBuilder {
 public:
  CaseBuilder(std::uint64_t seed,
              std::shared_ptr<const Certificate> anchor)
      : seed_(seed), anchor_(std::move(anchor)) {
    const auto& v = anchor_->validity();
    nb_ = v.not_before.date + 30;
    na_ = v.not_after.date - 30;
    if (na_ <= nb_) na_ = nb_ + 1;
    mid_ = nb_ + (na_ - nb_) / 2;
  }

  rs::util::Date nb() const { return nb_; }
  rs::util::Date na() const { return na_; }
  rs::util::Date mid() const { return mid_; }

  /// One intermediate under `parent` with an SKI and (when the parent has
  /// one) an AKI; validity spans [nb, na] unless overridden.
  std::shared_ptr<const Certificate> intermediate(
      const std::string& label, const Certificate& parent,
      std::optional<rs::util::Date> not_after = std::nullopt,
      CertOpts opts = {}) {
    opts.ski = key_id_for(label);
    opts.aki = ski_of(parent);
    return make_cert(seed_, label, ca_name("Chain " + label, "rs_verify"),
                     parent.subject(), nb_, not_after.value_or(na_), opts);
  }

  std::shared_ptr<const Certificate> leaf(
      const std::string& label, const Certificate& parent,
      std::vector<rs::asn1::Oid> eku = {rs::asn1::oids::eku_server_auth()}) {
    CertOpts opts;
    opts.leaf = true;
    opts.eku = std::move(eku);
    opts.aki = ski_of(parent);
    return make_cert(seed_, label, leaf_name(label + ".example.com"),
                     parent.subject(), nb_, na_, opts);
  }

  /// The anchor rides in every pool: the verifier terminates at a path
  /// certificate present in the provider's store, so an anchored path must
  /// be able to reach the root itself (clients likewise send the verifier
  /// pool ∪ trust-store candidates).
  ChainCase chain(const std::string& name, const std::string& note,
                  std::shared_ptr<const Certificate> leaf,
                  std::vector<std::shared_ptr<const Certificate>> pool) {
    pool.push_back(anchor_);
    return ChainCase{name, std::move(leaf), std::move(pool),
                     anchor_->sha256(), note};
  }

 private:
  std::uint64_t seed_;
  std::shared_ptr<const Certificate> anchor_;
  rs::util::Date nb_{}, na_{}, mid_{};
};

}  // namespace

std::vector<ChainCase> build_chain_cases(const ChainGenConfig& config) {
  assert(config.anchor != nullptr && "chain generation needs a store anchor");
  std::vector<ChainCase> cases;
  const auto& anchor = *config.anchor;
  CaseBuilder b(config.seed, config.anchor);

  // straight: anchor -> intermediate -> leaf, everything well-formed.
  {
    auto ica = b.intermediate("straight-ica", anchor);
    auto leaf = b.leaf("straight", *ica);
    cases.push_back(b.chain("straight", "well-formed depth-3 chain",
                            std::move(leaf), {ica}));
  }

  // deep: three stacked intermediates, still within the depth cap.
  {
    auto i1 = b.intermediate("deep-i1", anchor);
    auto i2 = b.intermediate("deep-i2", *i1);
    auto i3 = b.intermediate("deep-i3", *i2);
    auto leaf = b.leaf("deep", *i3);
    cases.push_back(b.chain("deep", "three intermediates deep",
                            std::move(leaf), {i1, i2, i3}));
  }

  // cross_sign: one intermediate identity issued both by the anchor and by
  // a root the store never trusted; the verifier must pick the anchored
  // parent and report the decoy path alongside.
  {
    auto decoy_root = make_cert(
        config.seed, "cross-decoy-root",
        ca_name("Unvetted Holdings Root", "Unvetted Holdings"),
        ca_name("Unvetted Holdings Root", "Unvetted Holdings"), b.nb() - 20,
        b.na(), [] {
          CertOpts o;
          o.ski = key_id_for("cross-decoy-root");
          return o;
        }());
    auto via_anchor = b.intermediate("cross-ica", anchor);
    // The same subject/SKI, signed by the decoy instead.
    CertOpts alt;
    alt.ski = ski_of(*via_anchor);
    alt.aki = ski_of(*decoy_root);
    auto via_decoy = make_cert(config.seed, "cross-ica-alt",
                               via_anchor->subject(), decoy_root->subject(),
                               b.nb(), b.na(), alt);
    auto leaf = b.leaf("cross", *via_anchor);
    cases.push_back(b.chain("cross_sign",
                            "cross-signed intermediate; one parent anchored",
                            std::move(leaf),
                            {via_anchor, via_decoy, decoy_root}));
  }

  // expired_intermediate: the middle link dies at mid-window, so the
  // verdict flips from accepted to cert_expired the day after.
  {
    auto ica = b.intermediate("expired-ica", anchor, b.mid());
    auto leaf = b.leaf("expired", *ica);
    cases.push_back(b.chain("expired_intermediate",
                            "intermediate expires mid-window",
                            std::move(leaf), {ica}));
  }

  // non_ca_intermediate: explicit BasicConstraints CA=false on the issuer.
  {
    CertOpts opts;
    opts.non_ca = true;
    auto ica = b.intermediate("nonca-ica", anchor, std::nullopt, opts);
    auto leaf = b.leaf("nonca", *ica);
    cases.push_back(b.chain("non_ca_intermediate",
                            "issuing certificate is not a CA",
                            std::move(leaf), {ica}));
  }

  // pathlen_violation: a pathLenConstraint=0 CA with another non-self-
  // issued CA below it.
  {
    CertOpts zero;
    zero.path_len = 0;
    auto top = b.intermediate("plen-top", anchor, std::nullopt, zero);
    auto below = b.intermediate("plen-below", *top);
    auto leaf = b.leaf("plen", *below);
    cases.push_back(b.chain("pathlen_violation",
                            "pathLenConstraint=0 exceeded one level down",
                            std::move(leaf), {top, below}));
  }

  // email_leaf: the leaf's EKU only permits email protection, so a TLS
  // query fails eku_scope_mismatch while an email query can succeed.
  {
    auto ica = b.intermediate("emailleaf-ica", anchor);
    auto leaf = b.leaf("emailleaf", *ica,
                       {rs::asn1::oids::eku_email_protection()});
    cases.push_back(b.chain("email_leaf",
                            "leaf EKU permits email only, never TLS",
                            std::move(leaf), {ica}));
  }

  // mixed_case: issuer names are case/whitespace-mangled renderings of the
  // parents' subjects — byte-different, caseIgnoreMatch-equivalent.
  {
    CertOpts iopts;
    iopts.ski = key_id_for("mixed-ica");
    auto ica = make_cert(config.seed, "mixed-ica",
                         ca_name("Chain mixed-ica", "rs_verify"),
                         mangled(anchor.subject()), b.nb(), b.na(), iopts);
    CertOpts lopts;
    lopts.leaf = true;
    lopts.eku = {rs::asn1::oids::eku_server_auth()};
    lopts.aki = ski_of(*ica);
    auto leaf = make_cert(config.seed, "mixed",
                          leaf_name("mixed.example.com"),
                          mangled(ica->subject()), b.nb(), b.na(), lopts);
    cases.push_back(b.chain("mixed_case",
                            "issuer DNs differ from subjects only by "
                            "case and whitespace",
                            std::move(leaf), {ica}));
  }

  // missing_intermediate: the pool lacks the leaf's issuer entirely.
  {
    auto ica = b.intermediate("missing-ica", anchor);
    auto leaf = b.leaf("missing", *ica);
    cases.push_back(b.chain("missing_intermediate",
                            "issuer absent from the pool",
                            std::move(leaf), {}));
  }

  // untrusted_root: a complete, well-formed chain to a self-signed root
  // the store has never carried.
  {
    CertOpts ropts;
    ropts.ski = key_id_for("rogue-root");
    auto rogue = make_cert(config.seed, "rogue-root",
                           ca_name("Rogue Shadow Root", "Rogue Shadow"),
                           ca_name("Rogue Shadow Root", "Rogue Shadow"),
                           b.nb() - 20, b.na(), ropts);
    auto ica = b.intermediate("rogue-ica", *rogue);
    auto leaf = b.leaf("rogue", *ica);
    cases.push_back(ChainCase{"untrusted_root",
                              std::move(leaf),
                              {ica, rogue},
                              rogue->sha256(),
                              "chains only to a never-trusted root"});
  }

  // email_only_anchor: a chain to a store root that carries email/code
  // trust bits but was never TLS-trusted (the Microsoft purpose pool).
  if (config.email_only_anchor != nullptr) {
    CaseBuilder eb(config.seed, config.email_only_anchor);
    auto ica = eb.intermediate("emailroot-ica", *config.email_only_anchor);
    // The leaf's EKU permits both scopes so the verdict difference comes
    // from the anchor's trust bits alone, not from EKU gating.
    auto leaf = eb.leaf("emailroot", *ica,
                        {rs::asn1::oids::eku_server_auth(),
                         rs::asn1::oids::eku_email_protection()});
    cases.push_back(eb.chain("email_only_anchor",
                             "anchor holds email bits only, never TLS",
                             std::move(leaf), {ica}));
  }

  // incident chains: straight chains under roots with removal history
  // (DigiNotar-style); first_rejected_at must land on the purge date.
  for (const auto& [name, root] : config.incident_anchors) {
    if (root == nullptr) continue;
    CaseBuilder ib(config.seed, root);
    auto ica = ib.intermediate("incident-" + name + "-ica", *root);
    auto leaf = ib.leaf("incident-" + name, *ica);
    cases.push_back(ib.chain("incident:" + name,
                             "chain under a root with a removal incident",
                             std::move(leaf), {ica}));
  }

  return cases;
}

ChainGenConfig default_chain_config(const rs::store::StoreDatabase& db,
                                    std::uint64_t seed) {
  ChainGenConfig config;
  config.seed = seed;

  // Snapshot-count per TLS anchor across every provider; the winner is the
  // most stable root in the dataset (ties: smallest fingerprint, which the
  // ordered map gives for free).
  std::map<rs::crypto::Sha256Digest,
           std::pair<std::size_t, std::shared_ptr<const Certificate>>>
      tls_counts;
  for (const auto& [provider, history] : db.histories()) {
    for (const auto& snapshot : history.snapshots()) {
      for (const auto& entry : snapshot.entries) {
        if (!entry.is_anchor_for(rs::store::TrustPurpose::kServerAuth)) {
          continue;
        }
        auto& slot = tls_counts[entry.certificate->sha256()];
        ++slot.first;
        slot.second = entry.certificate;
      }
    }
  }
  std::size_t best = 0;
  for (const auto& [fp, slot] : tls_counts) {
    if (slot.first > best) {
      best = slot.first;
      config.anchor = slot.second;
    }
  }

  // An email anchor nobody ever TLS-trusted (Microsoft's purpose pool):
  // tls_counts holds exactly the roots ever TLS-trusted anywhere.
  std::map<rs::crypto::Sha256Digest, std::shared_ptr<const Certificate>>
      email_only;
  for (const auto& [provider, history] : db.histories()) {
    for (const auto& snapshot : history.snapshots()) {
      for (const auto& entry : snapshot.entries) {
        const auto& fp = entry.certificate->sha256();
        if (entry.is_anchor_for(rs::store::TrustPurpose::kEmailProtection) &&
            !tls_counts.contains(fp)) {
          email_only.emplace(fp, entry.certificate);
        }
      }
    }
  }
  if (!email_only.empty()) {
    config.email_only_anchor = email_only.begin()->second;
  }
  return config;
}

}  // namespace rs::synth
