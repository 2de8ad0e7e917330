#include "src/synth/paper_reference.h"

namespace rs::synth::paper {

using rs::util::Date;

std::vector<DatasetRow> table2_dataset() {
  return {
      {"Alpine", Date::ymd(2019, 3, 1), Date::ymd(2021, 4, 1), 42, 7,
       "docker", "/etc/ssl/cert.pem or /etc/ssl/ca-certificates.crt"},
      {"AmazonLinux", Date::ymd(2016, 10, 1), Date::ymd(2021, 3, 1), 43, 15,
       "docker", "ca-trust/extracted/pem/tls-ca-bundle.pem aggregate file"},
      {"Android", Date::ymd(2016, 8, 1), Date::ymd(2020, 12, 1), 14, 7,
       "source code", "List of root certificate files"},
      {"Apple", Date::ymd(2002, 8, 1), Date::ymd(2021, 2, 1), 109, 43,
       "source code", "certificates/roots directory of files (macOS + iOS)"},
      {"Debian", Date::ymd(2005, 5, 1), Date::ymd(2021, 1, 1), 39, 29,
       "source code", "/etc/ssl/certs and /usr/share/ca-certificates"},
      {"Java", Date::ymd(2018, 3, 1), Date::ymd(2021, 2, 1), 7, 7,
       "source code", "make/data/cacerts JKS file"},
      {"Microsoft", Date::ymd(2006, 12, 1), Date::ymd(2021, 3, 1), 86, 70,
       "update file", "authroot.stl roots, trust purpose, addl. constraints"},
      {"NodeJS", Date::ymd(2015, 1, 1), Date::ymd(2021, 4, 1), 16, 11,
       "source code", "src/node_root_certs.h list of certificates"},
      {"NSS", Date::ymd(2000, 10, 1), Date::ymd(2021, 5, 1), 225, 63,
       "source code", "certdata.txt roots, trust purpose, addl. constraints"},
      {"Ubuntu", Date::ymd(2003, 10, 1), Date::ymd(2021, 1, 1), 38, 29,
       "source code", "/etc/ssl/certs and /usr/share/ca-certificates"},
  };
}

std::vector<HygieneRow> table3_hygiene() {
  return {
      {"Apple", 152.9, 2.9, "2016-09", "2015-09"},
      {"Java", 89.4, 1.3, "2019-02", "2021-02"},
      {"Microsoft", 246.6, 9.9, "2018-03", "2017-09"},
      {"NSS", 121.8, 1.2, "2016-02", "2015-10"},
  };
}

std::vector<ProgramShare> figure2_shares() {
  return {
      {"Mozilla/NSS", 0.34},
      {"Apple", 0.23},
      {"Microsoft", 0.20},
      {"Java", 0.00},
  };
}

std::vector<StalenessRow> figure3_staleness() {
  return {
      {"Alpine", 0.73},
      {"Debian", 1.96},
      {"Ubuntu", 1.96},
      {"NodeJS", 2.10},
      {"Android", 3.22},
      {"AmazonLinux", 4.83},
  };
}

std::vector<ExclusiveRow> table6_counts() {
  return {
      {"NSS", 1},
      {"Java", 0},
      {"Apple", 13},
      {"Microsoft", 30},
  };
}

}  // namespace rs::synth::paper
