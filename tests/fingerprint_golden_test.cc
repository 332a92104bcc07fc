// Golden session fingerprints: a committed table of FNV-1a hashes of
// SessionFingerprint strings. Every other differential compares one arm of
// the current code against another arm of the current code, so a defect
// shared by both arms — say, in how the session resolves its history —
// would not show there. These hashes were computed once from the earlier
// history representation (a full TranscriptEntry per learner question) and
// pin the observable surface against it.
//
// Covered: FleetDriver::RunSynchronous over the default WorkloadSpec for
// seeds 1–8 with speculative batching off and on, and hand-built
// QuerySessions that run Learn, Verify and Revise, then CorrectAndRelearn
// at the first, a middle and the last history entry, and at the middle of
// Learn's questions (plus a second correction on top of that one).
//
// Regenerating: when a fingerprint change is intended, the failure message
// prints the whole computed table in source form; paste it over kGolden.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/session/session.h"
#include "src/workload/fingerprint.h"
#include "src/workload/fleet_driver.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Golden {
  const char* label;
  uint64_t hash;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"fleet/spec0/seed1/s0", 0x3497705993971466ULL},
    {"fleet/spec0/seed1/s1", 0x112d3c6bef7d0745ULL},
    {"fleet/spec0/seed1/s2", 0xcdf67333efa77ae1ULL},
    {"fleet/spec0/seed1/s3", 0xe45174d51c87a2f4ULL},
    {"fleet/spec0/seed1/s4", 0x45737c69b2cb4988ULL},
    {"fleet/spec0/seed1/s5", 0x517ad09929c7469fULL},
    {"fleet/spec0/seed1/s6", 0xdb6d36081c5db042ULL},
    {"fleet/spec0/seed1/s7", 0x9aafebc35d7b38f9ULL},
    {"fleet/spec0/seed2/s0", 0x79d2eb194beb5885ULL},
    {"fleet/spec0/seed2/s1", 0xeb26f2b64871496dULL},
    {"fleet/spec0/seed2/s2", 0x2c2e53da1204458fULL},
    {"fleet/spec0/seed2/s3", 0x2c0114ad39af1d98ULL},
    {"fleet/spec0/seed2/s4", 0xbe33a227b2e2184dULL},
    {"fleet/spec0/seed2/s5", 0xb99ee2611e608d7aULL},
    {"fleet/spec0/seed2/s6", 0x276cea7ebf62281dULL},
    {"fleet/spec0/seed2/s7", 0xfae9f890499f720aULL},
    {"fleet/spec0/seed3/s0", 0x27a1ea982d682567ULL},
    {"fleet/spec0/seed3/s1", 0xcef5227b2aa1aa5aULL},
    {"fleet/spec0/seed3/s2", 0xdba2120531b69b21ULL},
    {"fleet/spec0/seed3/s3", 0xbe62927823a8d1aeULL},
    {"fleet/spec0/seed3/s4", 0x3e2dad87454443f3ULL},
    {"fleet/spec0/seed3/s5", 0x683d2bc37085835dULL},
    {"fleet/spec0/seed3/s6", 0x604006ecb51ec4feULL},
    {"fleet/spec0/seed3/s7", 0x44c33ae87e0de885ULL},
    {"fleet/spec0/seed4/s0", 0xfe92c5ceab354e89ULL},
    {"fleet/spec0/seed4/s1", 0x2814c90b9abbf177ULL},
    {"fleet/spec0/seed4/s2", 0x66d310a11564efb4ULL},
    {"fleet/spec0/seed4/s3", 0x9a734a91e55c4f0dULL},
    {"fleet/spec0/seed4/s4", 0x131336da898bf632ULL},
    {"fleet/spec0/seed4/s5", 0xfed280f39c51a067ULL},
    {"fleet/spec0/seed4/s6", 0x72cd09af1a1f70beULL},
    {"fleet/spec0/seed4/s7", 0xbbd79a23496cba3cULL},
    {"fleet/spec0/seed5/s0", 0x483406b067e478c4ULL},
    {"fleet/spec0/seed5/s1", 0xed60855af4970382ULL},
    {"fleet/spec0/seed5/s2", 0x715e73ad8bf3b28dULL},
    {"fleet/spec0/seed5/s3", 0xb674b44e520d149dULL},
    {"fleet/spec0/seed5/s4", 0x6823e3f5e9f25629ULL},
    {"fleet/spec0/seed5/s5", 0xde3c68327b931350ULL},
    {"fleet/spec0/seed5/s6", 0xafbe6a34bcfc809aULL},
    {"fleet/spec0/seed5/s7", 0x6baa14387245c47eULL},
    {"fleet/spec0/seed6/s0", 0x7f3603a932d7986fULL},
    {"fleet/spec0/seed6/s1", 0x8e8eb08897c4153bULL},
    {"fleet/spec0/seed6/s2", 0xdac7bfe92ab0bf6dULL},
    {"fleet/spec0/seed6/s3", 0xf3d4342ff1c8d123ULL},
    {"fleet/spec0/seed6/s4", 0x0f34e11d7737d725ULL},
    {"fleet/spec0/seed6/s5", 0x952a41dae65fbd9bULL},
    {"fleet/spec0/seed6/s6", 0xdf5c48b110128ed2ULL},
    {"fleet/spec0/seed6/s7", 0x0aab828c3341e6b3ULL},
    {"fleet/spec0/seed7/s0", 0x450b31b15f4f18f3ULL},
    {"fleet/spec0/seed7/s1", 0x433196c7dcbe972dULL},
    {"fleet/spec0/seed7/s2", 0x19162dbfaf0dd08cULL},
    {"fleet/spec0/seed7/s3", 0x5bb346614bde160bULL},
    {"fleet/spec0/seed7/s4", 0x56bf94da0eac4769ULL},
    {"fleet/spec0/seed7/s5", 0xa02cd37209046890ULL},
    {"fleet/spec0/seed7/s6", 0xc7bf1a6552302718ULL},
    {"fleet/spec0/seed7/s7", 0x8c984d91ade4fa4aULL},
    {"fleet/spec0/seed8/s0", 0xcfbc3d9a912b9843ULL},
    {"fleet/spec0/seed8/s1", 0xffebdfcf897ec2eeULL},
    {"fleet/spec0/seed8/s2", 0x0978c079e09ea05eULL},
    {"fleet/spec0/seed8/s3", 0xe44723679094b066ULL},
    {"fleet/spec0/seed8/s4", 0x277477204f8b32b7ULL},
    {"fleet/spec0/seed8/s5", 0x0f6c7796926cd3b0ULL},
    {"fleet/spec0/seed8/s6", 0x8db53617c5c0c40aULL},
    {"fleet/spec0/seed8/s7", 0x337d83b8547ad5ccULL},
    {"fleet/spec1/seed1/s0", 0xfc0b48b04f99eadbULL},
    {"fleet/spec1/seed1/s1", 0x112d3c6bef7d0745ULL},
    {"fleet/spec1/seed1/s2", 0xcdf67333efa77ae1ULL},
    {"fleet/spec1/seed1/s3", 0xe45174d51c87a2f4ULL},
    {"fleet/spec1/seed1/s4", 0xdb8ce7779326d8b8ULL},
    {"fleet/spec1/seed1/s5", 0xa7538dc1c1c9b555ULL},
    {"fleet/spec1/seed1/s6", 0xdb6d36081c5db042ULL},
    {"fleet/spec1/seed1/s7", 0x8f6642587ef226f1ULL},
    {"fleet/spec1/seed2/s0", 0x79d2eb194beb5885ULL},
    {"fleet/spec1/seed2/s1", 0x55214dcab9053115ULL},
    {"fleet/spec1/seed2/s2", 0x626b6a9e44bbb4c3ULL},
    {"fleet/spec1/seed2/s3", 0x55443b25947ead0dULL},
    {"fleet/spec1/seed2/s4", 0xe81b952656f6ba52ULL},
    {"fleet/spec1/seed2/s5", 0xb99ee2611e608d7aULL},
    {"fleet/spec1/seed2/s6", 0x276cea7ebf62281dULL},
    {"fleet/spec1/seed2/s7", 0x15fd2169a886cf90ULL},
    {"fleet/spec1/seed3/s0", 0xfb782f15c4335b5bULL},
    {"fleet/spec1/seed3/s1", 0xc86050fb0ac443fcULL},
    {"fleet/spec1/seed3/s2", 0x6ac38fa367ce239bULL},
    {"fleet/spec1/seed3/s3", 0x553b145dbba329f8ULL},
    {"fleet/spec1/seed3/s4", 0x07b8499e9a889a53ULL},
    {"fleet/spec1/seed3/s5", 0x9d85046358a778b6ULL},
    {"fleet/spec1/seed3/s6", 0x0de2de5b4f17ad4aULL},
    {"fleet/spec1/seed3/s7", 0x5952ce03fc8d3067ULL},
    {"fleet/spec1/seed4/s0", 0xf6ad572080327e2fULL},
    {"fleet/spec1/seed4/s1", 0xe6a583bdea8bdfe4ULL},
    {"fleet/spec1/seed4/s2", 0x66d310a11564efb4ULL},
    {"fleet/spec1/seed4/s3", 0xa02aeb0815ed45b7ULL},
    {"fleet/spec1/seed4/s4", 0x9663c62e912cec31ULL},
    {"fleet/spec1/seed4/s5", 0xfed280f39c51a067ULL},
    {"fleet/spec1/seed4/s6", 0x72cd09af1a1f70beULL},
    {"fleet/spec1/seed4/s7", 0x8a70b30684348af2ULL},
    {"fleet/spec1/seed5/s0", 0x5da5293002115b9dULL},
    {"fleet/spec1/seed5/s1", 0xed60855af4970382ULL},
    {"fleet/spec1/seed5/s2", 0x715e73ad8bf3b28dULL},
    {"fleet/spec1/seed5/s3", 0xe83ef5ed4bf79c7bULL},
    {"fleet/spec1/seed5/s4", 0xdcd3539a12174d4cULL},
    {"fleet/spec1/seed5/s5", 0xe675abadeecdee4cULL},
    {"fleet/spec1/seed5/s6", 0x0824e64305c3aac4ULL},
    {"fleet/spec1/seed5/s7", 0x6baa14387245c47eULL},
    {"fleet/spec1/seed6/s0", 0xe5c5a1c753d651dcULL},
    {"fleet/spec1/seed6/s1", 0x8e8eb08897c4153bULL},
    {"fleet/spec1/seed6/s2", 0x240d3705f579fd96ULL},
    {"fleet/spec1/seed6/s3", 0xc2d231e4d09fb682ULL},
    {"fleet/spec1/seed6/s4", 0x0f34e11d7737d725ULL},
    {"fleet/spec1/seed6/s5", 0x8fde6a16be6f03ddULL},
    {"fleet/spec1/seed6/s6", 0xdf5c48b110128ed2ULL},
    {"fleet/spec1/seed6/s7", 0x8e8ed0cf7810375cULL},
    {"fleet/spec1/seed7/s0", 0x182f920ba7ca86f0ULL},
    {"fleet/spec1/seed7/s1", 0x780df09f66bc7ac4ULL},
    {"fleet/spec1/seed7/s2", 0x42cc8babbd8454e4ULL},
    {"fleet/spec1/seed7/s3", 0xea35ce8993adfe0eULL},
    {"fleet/spec1/seed7/s4", 0x078c536e46ef148eULL},
    {"fleet/spec1/seed7/s5", 0x68f9d8a21d6351a5ULL},
    {"fleet/spec1/seed7/s6", 0xb0d49711ba6ffb8eULL},
    {"fleet/spec1/seed7/s7", 0xdd409f5402651c13ULL},
    {"fleet/spec1/seed8/s0", 0xcfbc3d9a912b9843ULL},
    {"fleet/spec1/seed8/s1", 0xaf283a81fc8cabdaULL},
    {"fleet/spec1/seed8/s2", 0x7eb64888e4ab69dfULL},
    {"fleet/spec1/seed8/s3", 0xfb499e6b90ad8106ULL},
    {"fleet/spec1/seed8/s4", 0xf9a28c23be29aee2ULL},
    {"fleet/spec1/seed8/s5", 0x0f6c7796926cd3b0ULL},
    {"fleet/spec1/seed8/s6", 0x788460353c3815cdULL},
    {"fleet/spec1/seed8/s7", 0x17ff6bd3c738fdceULL},
    {"session/spec0/univ4/phases", 0x5ebeae9f430ab10cULL},
    {"session/spec0/univ4/correct0", 0xefa121ddd524805cULL},
    {"session/spec0/univ4/correct13", 0x097333742e8e0fe0ULL},
    {"session/spec0/univ4/correct13/correct6", 0x2ffe23fc226ca2caULL},
    {"session/spec0/univ4/correct30", 0x12fd3895259482b7ULL},
    {"session/spec0/univ4/correct60", 0x12fd3895259482b7ULL},
    {"session/spec0/exist5/phases", 0x23ac8ed1095bbc03ULL},
    {"session/spec0/exist5/correct0", 0x1ec39128eb523b93ULL},
    {"session/spec0/exist5/correct19", 0x5baae0fcec05231fULL},
    {"session/spec0/exist5/correct19/correct9", 0xdec73d9f62e0d108ULL},
    {"session/spec0/exist5/correct46", 0xc8f05c86ad5efb49ULL},
    {"session/spec0/exist5/correct91", 0xc8f05c86ad5efb49ULL},
    {"session/spec0/mixed5/phases", 0x8eceef9dd1bb6f30ULL},
    {"session/spec0/mixed5/correct0", 0x4e351c99abc471feULL},
    {"session/spec0/mixed5/correct16", 0x547e1e38a168a920ULL},
    {"session/spec0/mixed5/correct16/correct8", 0xac59caf4719398e2ULL},
    {"session/spec0/mixed5/correct44", 0xd1efa872da1173f0ULL},
    {"session/spec0/mixed5/correct87", 0xd1efa872da1173f0ULL},
    {"session/spec0/heads6/phases", 0x0983c070522af52aULL},
    {"session/spec0/heads6/correct0", 0x725b1efec0b757f1ULL},
    {"session/spec0/heads6/correct22", 0xcadc427ee71c17abULL},
    {"session/spec0/heads6/correct22/correct11", 0xb2634ae9f975196dULL},
    {"session/spec0/heads6/correct46", 0xa5a883090d5e4421ULL},
    {"session/spec0/heads6/correct91", 0xa5a883090d5e4421ULL},
    {"session/spec1/univ4/phases", 0xeaf0c580865f496bULL},
    {"session/spec1/univ4/correct0", 0x80ca8bb76581ffedULL},
    {"session/spec1/univ4/correct17", 0xc54908143e0b91ebULL},
    {"session/spec1/univ4/correct17/correct8", 0x123bf22700609ef8ULL},
    {"session/spec1/univ4/correct37", 0x6ff987987530610aULL},
    {"session/spec1/univ4/correct73", 0x6ff987987530610aULL},
    {"session/spec1/exist5/phases", 0xd9360665a972f16fULL},
    {"session/spec1/exist5/correct0", 0xde297c9b304b46e8ULL},
    {"session/spec1/exist5/correct29", 0xdfdc77c74dd34407ULL},
    {"session/spec1/exist5/correct29/correct14", 0x7f145ceb1273f4fcULL},
    {"session/spec1/exist5/correct66", 0x2ab68301a9bffda3ULL},
    {"session/spec1/exist5/correct131", 0x2ab68301a9bffda3ULL},
    {"session/spec1/mixed5/phases", 0xe930f620074e11baULL},
    {"session/spec1/mixed5/correct0", 0xaf02538b91a5721fULL},
    {"session/spec1/mixed5/correct20", 0x97fe3e4747cd05e9ULL},
    {"session/spec1/mixed5/correct20/correct10", 0xc911efa32553a6afULL},
    {"session/spec1/mixed5/correct52", 0xaa0c6fb76a9fa573ULL},
    {"session/spec1/mixed5/correct103", 0xaa0c6fb76a9fa573ULL},
    {"session/spec1/heads6/phases", 0xeb64cfc3cfff80e9ULL},
    {"session/spec1/heads6/correct0", 0x57559b305e1576c6ULL},
    {"session/spec1/heads6/correct35", 0x5710a1db8bf6db32ULL},
    {"session/spec1/heads6/correct35/correct17", 0x84f1b3c15e929d4cULL},
    {"session/spec1/heads6/correct63", 0x3e88092bbfe56b6bULL},
    {"session/spec1/heads6/correct125", 0x5e8cb7641eec4f97ULL},
};
// clang-format on

using Table = std::vector<std::pair<std::string, uint64_t>>;

void AddFleet(Table* table) {
  for (bool speculative : {false, true}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      WorkloadSpec spec;
      spec.seed = seed;
      spec.speculative_batching = speculative;
      Fleet fleet = GenerateFleet(spec);
      FleetResult result = FleetDriver(fleet).RunSynchronous();
      ASSERT_TRUE(result.ok) << result.failure;
      for (size_t i = 0; i < result.fingerprints.size(); ++i) {
        table->emplace_back("fleet/spec" + std::to_string(speculative) +
                                "/seed" + std::to_string(seed) + "/s" +
                                std::to_string(i),
                            Fnv1a(result.fingerprints[i]));
      }
    }
  }
}

struct Case {
  const char* name;
  int n;
  const char* target;
  const char* mutant;
};

constexpr Case kCases[] = {
    {"univ4", 4, "∀x1x2→x4 ∃x3", "∀x1→x4 ∃x2x3"},
    {"exist5", 5, "∃x1x2 ∃x4 ∃x3x5", "∃x1x2x3 ∃x4"},
    {"mixed5", 5, "∀x1x2→x5 ∀x3x4→x5 ∃x1x2x3", "∀x1x2→x5 ∃x1x3"},
    {"heads6", 6, "∀x1→x5 ∀x2x3→x6 ∃x1x4 ∃x2x6", "∀x1→x5 ∃x1x4x2"},
};

/// The phases after Learn: Verify(target), Verify(mutant), Revise(mutant).
void RunRest(QuerySession& session, const Query& target,
             const Query& mutant) {
  session.Verify(target);
  session.Verify(mutant);
  session.Revise(mutant);
}

void AddSessions(Table* table) {
  for (bool speculative : {false, true}) {
    QuerySession::Options options;
    options.learner.existential.speculative_batching = speculative;
    options.learner.universal.speculative_batching = speculative;
    for (const Case& c : kCases) {
      const Query target = Query::Parse(c.target, c.n);
      const Query mutant = Query::Parse(c.mutant, c.n);
      const std::string prefix = std::string("session/spec") +
                                 std::to_string(speculative) + "/" + c.name;
      size_t learned = 0;
      size_t length = 0;
      {
        QueryOracle user(target);
        QuerySession session(c.n, &user, options);
        session.Learn();
        learned = session.history().size();
        RunRest(session, target, mutant);
        length = session.history().size();
        table->emplace_back(prefix + "/phases",
                            Fnv1a(SessionFingerprint(session)));
      }
      ASSERT_GT(learned, 2u);
      ASSERT_GT(length, learned);
      // The relearn replays only Learn's questions, so an index inside
      // Learn makes the replay diverge mid-run; later ones never matter.
      for (size_t index : {size_t{0}, learned / 2, length / 2, length - 1}) {
        QueryOracle user(target);
        QuerySession session(c.n, &user, options);
        session.Learn();
        RunRest(session, target, mutant);
        session.CorrectAndRelearn(index);
        const std::string label = prefix + "/correct" + std::to_string(index);
        table->emplace_back(label, Fnv1a(SessionFingerprint(session)));
        if (index == learned / 2) {
          // A second correction, inside the replayed prefix of the first.
          session.CorrectAndRelearn(index / 2);
          table->emplace_back(label + "/correct" + std::to_string(index / 2),
                              Fnv1a(SessionFingerprint(session)));
        }
      }
    }
  }
}

std::string Render(const Table& table) {
  std::string out;
  char line[160];
  for (const auto& [label, hash] : table) {
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                  label.c_str(), static_cast<unsigned long long>(hash));
    out += line;
  }
  return out;
}

TEST(FingerprintGoldenTest, FingerprintsMatchTheCommittedTable) {
  Table table;
  AddFleet(&table);
  AddSessions(&table);
  ASSERT_FALSE(HasFatalFailure());

  bool same = table.size() == std::size(kGolden);
  for (size_t i = 0; same && i < table.size(); ++i) {
    same = table[i].first == kGolden[i].label &&
           table[i].second == kGolden[i].hash;
  }
  EXPECT_TRUE(same) << "fingerprints differ from the committed table; "
                       "computed table:\n"
                    << Render(table);
}

}  // namespace
}  // namespace qhorn
