#include "src/store/trust.h"

namespace rs::store {

const char* to_string(TrustPurpose p) noexcept {
  switch (p) {
    case TrustPurpose::kServerAuth:
      return "server-auth";
    case TrustPurpose::kEmailProtection:
      return "email-protection";
    case TrustPurpose::kCodeSigning:
      return "code-signing";
  }
  return "?";
}

const char* to_string(TrustLevel l) noexcept {
  switch (l) {
    case TrustLevel::kTrustedDelegator:
      return "trusted-delegator";
    case TrustLevel::kMustVerify:
      return "must-verify";
    case TrustLevel::kDistrusted:
      return "distrusted";
  }
  return "?";
}

const char* to_string(Scope scope) noexcept {
  switch (scope) {
    case Scope::kTls: return "tls";
    case Scope::kEmail: return "email";
    case Scope::kCode: return "code";
    case Scope::kPresent: return "present";
  }
  return "?";
}

TrustEntry make_tls_anchor(std::shared_ptr<const rs::x509::Certificate> cert) {
  return make_anchor_for(std::move(cert), {TrustPurpose::kServerAuth});
}

TrustEntry make_anchor_for(std::shared_ptr<const rs::x509::Certificate> cert,
                           std::initializer_list<TrustPurpose> purposes) {
  TrustEntry e;
  e.certificate = std::move(cert);
  for (TrustPurpose p : purposes) {
    e.trust_for(p).level = TrustLevel::kTrustedDelegator;
  }
  return e;
}

}  // namespace rs::store
