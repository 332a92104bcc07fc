// Golden session fingerprints: a committed table of FNV-1a hashes of
// SessionFingerprint strings. Every other differential compares one arm of
// the current code against another arm of the current code, so a defect
// shared by both arms — say, in how the session resolves its history —
// would not show there. These hashes were computed once from the earlier
// history representation (a full TranscriptEntry per learner question) and
// pin the observable surface against it. The `…/correct…` rows were
// recomputed once, on purpose, when CorrectAndRelearn became the
// user-boundary restart the router runs (cache → counting → replay →
// user): since then questions_asked(), cache_hits() and the batched count
// after a correction include the replayed prefix, as a router session's
// always did. Every other row is unchanged since it was first computed.
//
// Covered: FleetDriver::RunSynchronous over the default WorkloadSpec for
// seeds 1–8 with speculative batching off and on, and hand-built
// QuerySessions that run Learn, Verify and Revise, then CorrectAndRelearn
// at the first, a middle and the last history entry, and at the middle of
// Learn's questions (plus a second correction on top of that one). A second
// table pins RunSynchronous's aggregate counters for the same 16 fleets.
//
// Regenerating: when a fingerprint change is intended, the failure message
// prints the whole computed table in source form; paste it over kGolden
// (or kGoldenStats).

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
    {"session/spec0/univ4/correct0", 0xa937315cdec1f4b6ULL},
    {"session/spec0/univ4/correct13", 0x49257878206c14d9ULL},
    {"session/spec0/univ4/correct13/correct6", 0xbd6d02195bd02da1ULL},
    {"session/spec0/univ4/correct30", 0x64b8409542155c61ULL},
    {"session/spec0/univ4/correct60", 0xae06df82cb076818ULL},
    {"session/spec0/exist5/phases", 0x23ac8ed1095bbc03ULL},
    {"session/spec0/exist5/correct0", 0x5c1c7967667e84c5ULL},
    {"session/spec0/exist5/correct19", 0xbc483423feaaeb3dULL},
    {"session/spec0/exist5/correct19/correct9", 0x0354e2f1d54a693cULL},
    {"session/spec0/exist5/correct46", 0x5d42f3cd2ea3acbdULL},
    {"session/spec0/exist5/correct91", 0x108f70253edc916cULL},
    {"session/spec0/mixed5/phases", 0x8eceef9dd1bb6f30ULL},
    {"session/spec0/mixed5/correct0", 0x726e9b424257aa88ULL},
    {"session/spec0/mixed5/correct16", 0x4392dea95c9ddf0aULL},
    {"session/spec0/mixed5/correct16/correct8", 0xdeabdfdf4b01a75dULL},
    {"session/spec0/mixed5/correct44", 0xb1206ded24006e48ULL},
    {"session/spec0/mixed5/correct87", 0x3abe12bfca07d392ULL},
    {"session/spec0/heads6/phases", 0x0983c070522af52aULL},
    {"session/spec0/heads6/correct0", 0xe011bfae0a535d91ULL},
    {"session/spec0/heads6/correct22", 0xe2490959613949b3ULL},
    {"session/spec0/heads6/correct22/correct11", 0x84ee690a1fa6683bULL},
    {"session/spec0/heads6/correct46", 0xa66dfaeccedab35eULL},
    {"session/spec0/heads6/correct91", 0x2e83088d1c0d4648ULL},
    {"session/spec1/univ4/phases", 0xeaf0c580865f496bULL},
    {"session/spec1/univ4/correct0", 0x85dc28fdb347ffbbULL},
    {"session/spec1/univ4/correct17", 0x25381710f6b23444ULL},
    {"session/spec1/univ4/correct17/correct8", 0xbaf6760638f7a964ULL},
    {"session/spec1/univ4/correct37", 0xbede5e9a87b76f05ULL},
    {"session/spec1/univ4/correct73", 0x1fd89d0370d2e300ULL},
    {"session/spec1/exist5/phases", 0xd9360665a972f16fULL},
    {"session/spec1/exist5/correct0", 0xa112423c5ec4052aULL},
    {"session/spec1/exist5/correct29", 0xd7b9a9ff75fb2e14ULL},
    {"session/spec1/exist5/correct29/correct14", 0x8d20b077433e8b96ULL},
    {"session/spec1/exist5/correct66", 0x283d7d066e7a1bb2ULL},
    {"session/spec1/exist5/correct131", 0xa85814940c52b0d6ULL},
    {"session/spec1/mixed5/phases", 0xe930f620074e11baULL},
    {"session/spec1/mixed5/correct0", 0xa200371cc78b899dULL},
    {"session/spec1/mixed5/correct20", 0xfee5186a369a80adULL},
    {"session/spec1/mixed5/correct20/correct10", 0xb8320092f269ed5dULL},
    {"session/spec1/mixed5/correct52", 0xd563b1114c01c0e5ULL},
    {"session/spec1/mixed5/correct103", 0xe19be64d59add5b3ULL},
    {"session/spec1/heads6/phases", 0xeb64cfc3cfff80e9ULL},
    {"session/spec1/heads6/correct0", 0x039e5947f2c8c658ULL},
    {"session/spec1/heads6/correct35", 0x12d4cdd10fe83649ULL},
    {"session/spec1/heads6/correct35/correct17", 0xe810b72f43e9f2abULL},
    {"session/spec1/heads6/correct63", 0xf619c76faecee59aULL},
    {"session/spec1/heads6/correct125", 0x13734f634ef709a3ULL},
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
      // The relearn asks only Learn's questions, so an index inside Learn
      // flips an answer mid-run; a later one leaves all of Learn replayed.
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

// The reference arm's aggregate counters, per seed: the totals bench_e2e
// divides into questions_per_session and rounds_per_session. Recorded from
// the earlier reference arm, which ran every session on a 1-lane router.
struct GoldenStats {
  bool speculative;
  uint64_t seed;
  int64_t sessions, jobs, learns, verifies, revisions, questions,
      batched_questions, rounds, cache_hits;
};

// clang-format off
constexpr GoldenStats kGoldenStats[] = {
    {false, 1, 8, 13, 4, 8, 1, 187, 76, 174, 78},
    {false, 2, 8, 13, 5, 7, 1, 186, 65, 204, 109},
    {false, 3, 8, 16, 8, 5, 3, 310, 95, 358, 167},
    {false, 4, 8, 14, 5, 7, 2, 205, 67, 197, 84},
    {false, 5, 8, 13, 5, 7, 1, 147, 58, 118, 33},
    {false, 6, 8, 12, 5, 5, 2, 185, 59, 177, 53},
    {false, 7, 8, 10, 8, 0, 2, 334, 71, 355, 97},
    {false, 8, 8, 13, 6, 6, 1, 204, 69, 203, 70},
    {true, 1, 8, 13, 4, 8, 1, 210, 209, 116, 133},
    {true, 2, 8, 13, 5, 7, 1, 201, 200, 138, 179},
    {true, 3, 8, 16, 8, 5, 3, 368, 367, 242, 307},
    {true, 4, 8, 14, 5, 7, 2, 230, 229, 134, 144},
    {true, 5, 8, 13, 5, 7, 1, 165, 165, 80, 64},
    {true, 6, 8, 12, 5, 5, 2, 199, 198, 123, 105},
    {true, 7, 8, 10, 8, 0, 2, 399, 398, 244, 210},
    {true, 8, 8, 13, 6, 6, 1, 234, 233, 131, 130},
};
// clang-format on

GoldenStats ReferenceStats(bool speculative, uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.speculative_batching = speculative;
  const ServiceStats s =
      FleetDriver(GenerateFleet(spec)).RunSynchronous().stats;
  return {speculative,  seed,        s.sessions,
          s.jobs,       s.learns,    s.verifies,
          s.revisions,  s.questions, s.batched_questions,
          s.rounds,     s.cache_hits};
}

std::string Render(const GoldenStats& g) {
  char line[200];
  std::snprintf(line, sizeof line,
                "    {%s, %llu, %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
                "%lld, %lld},\n",
                g.speculative ? "true" : "false",
                static_cast<unsigned long long>(g.seed),
                static_cast<long long>(g.sessions),
                static_cast<long long>(g.jobs),
                static_cast<long long>(g.learns),
                static_cast<long long>(g.verifies),
                static_cast<long long>(g.revisions),
                static_cast<long long>(g.questions),
                static_cast<long long>(g.batched_questions),
                static_cast<long long>(g.rounds),
                static_cast<long long>(g.cache_hits));
  return line;
}

bool operator==(const GoldenStats& a, const GoldenStats& b) {
  return a.speculative == b.speculative && a.seed == b.seed &&
         a.sessions == b.sessions && a.jobs == b.jobs &&
         a.learns == b.learns && a.verifies == b.verifies &&
         a.revisions == b.revisions && a.questions == b.questions &&
         a.batched_questions == b.batched_questions && a.rounds == b.rounds &&
         a.cache_hits == b.cache_hits;
}

TEST(FingerprintGoldenTest, ReferenceArmStatsMatchTheCommittedTable) {
  std::vector<GoldenStats> table;
  for (bool speculative : {false, true}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      table.push_back(ReferenceStats(speculative, seed));
    }
  }
  bool same = table.size() == std::size(kGoldenStats);
  for (size_t i = 0; same && i < table.size(); ++i) {
    same = table[i] == kGoldenStats[i];
  }
  std::string rendered;
  for (const GoldenStats& g : table) rendered += Render(g);
  EXPECT_TRUE(same) << "reference-arm stats differ from the committed table; "
                       "computed table:\n"
                    << rendered;
}

}  // namespace
}  // namespace qhorn
