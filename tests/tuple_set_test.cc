// Objects (tuple sets): canonical form, set algebra, hashing.

#include "src/bool/tuple_set.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace qhorn {
namespace {

static_assert(sizeof(TupleSet) <= 40);

std::vector<Tuple> Tuples(const TupleSet& s) {
  return std::vector<Tuple>(s.begin(), s.end());
}

/// A set of `count` tuples 1..count, stored on the heap.
TupleSet HeapSet(Tuple count) {
  TupleSet s;
  for (Tuple t = 1; t <= count; ++t) s.Add(t);
  return s;
}

TEST(TupleSetTest, DeduplicatesAndSorts) {
  TupleSet s{0b11, 0b01, 0b11, 0b10};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(Tuples(s), (std::vector<Tuple>{0b01, 0b10, 0b11}));
}

TEST(TupleSetTest, ParseMatchesManual) {
  // The §3.1.1 question {111, 011}.
  TupleSet parsed = TupleSet::Parse({"111", "011"});
  TupleSet manual{ParseTuple("111"), ParseTuple("011")};
  EXPECT_EQ(parsed, manual);
}

TEST(TupleSetTest, AddRemoveContains) {
  TupleSet s;
  EXPECT_TRUE(s.empty());
  s.Add(5);
  s.Add(3);
  s.Add(5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(5));
  s.Remove(5);
  EXPECT_FALSE(s.Contains(5));
  s.Remove(99);  // no-op
  EXPECT_EQ(s.size(), 1u);
}

TEST(TupleSetTest, UnionKeepsCanonicalForm) {
  TupleSet a{1, 3};
  TupleSet b{2, 3};
  TupleSet u = a.Union(b);
  EXPECT_EQ(Tuples(u), (std::vector<Tuple>{1, 2, 3}));
}

TEST(TupleSetTest, SatisfiesConjunction) {
  TupleSet s = TupleSet::Parse({"101", "011"});
  EXPECT_TRUE(s.SatisfiesConjunction(ParseTuple("100")));   // x1 ⊆ 101
  EXPECT_TRUE(s.SatisfiesConjunction(ParseTuple("011")));   // x2x3 ⊆ 011
  EXPECT_FALSE(s.SatisfiesConjunction(ParseTuple("110")));  // x1x2 nowhere
  EXPECT_TRUE(s.SatisfiesConjunction(0));                   // trivial
  EXPECT_FALSE(TupleSet().SatisfiesConjunction(0));  // empty object has no tuple
}

TEST(TupleSetTest, EqualityIsOrderInsensitive) {
  EXPECT_EQ(TupleSet::Parse({"10", "01"}), TupleSet::Parse({"01", "10"}));
  EXPECT_NE(TupleSet::Parse({"10"}), TupleSet::Parse({"01"}));
}

TEST(TupleSetTest, HashAgreesWithEquality) {
  TupleSet a = TupleSet::Parse({"110", "011"});
  TupleSet b = TupleSet::Parse({"011", "110", "110"});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), TupleSet::Parse({"110"}).Hash());
}

TEST(TupleSetTest, ToStringUsesPaperNotation) {
  TupleSet s = TupleSet::Parse({"111", "011"});
  EXPECT_EQ(s.ToString(3), "{011, 111}");
}

TEST(TupleSetTest, CachedHashStaysInSyncThroughMutations) {
  // Hash() is cached and updated on mutation; it must always equal the
  // hash of a freshly constructed set with the same tuples.
  Rng rng(5);
  TupleSet s;
  for (int step = 0; step < 200; ++step) {
    Tuple t = rng.Below(64);
    if (rng.Chance(0.3)) {
      s.Remove(t);
    } else {
      s.Add(t);
    }
    TupleSet fresh(s.tuples());
    ASSERT_EQ(s.Hash(), fresh.Hash());
    ASSERT_EQ(s, fresh);
  }
  TupleSet u = s.Union(TupleSet{1, 2, 3});
  EXPECT_EQ(u.Hash(), TupleSet(u.tuples()).Hash());
}

TEST(TupleSetTest, SatisfiesConjunctionAllMatchesPerMaskScans) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    TupleSet s;
    size_t tuples = rng.Below(12);
    for (size_t i = 0; i < tuples; ++i) s.Add(rng.Next() & 0xffff);
    std::vector<VarSet> masks;
    size_t count = rng.Below(20);
    for (size_t i = 0; i < count; ++i) masks.push_back(rng.Next() & 0xffff);
    bool all = true;
    for (VarSet m : masks) all = all && s.SatisfiesConjunction(m);
    ASSERT_EQ(s.SatisfiesConjunctionAll(masks), all)
        << "trial " << trial << " tuples=" << tuples
        << " masks=" << masks.size();
  }
}

TEST(TupleSetTest, SatisfiesConjunctionAllEdgeCases) {
  TupleSet s = TupleSet::Parse({"101", "011"});
  EXPECT_TRUE(s.SatisfiesConjunctionAll({}));        // no masks
  EXPECT_TRUE(TupleSet().SatisfiesConjunctionAll({}));
  std::vector<VarSet> one = {ParseTuple("100")};
  EXPECT_FALSE(TupleSet().SatisfiesConjunctionAll(one));  // empty object
  // More masks than the stack bitset holds (heap path, > 512 masks).
  std::vector<VarSet> many(600, ParseTuple("001"));
  many.push_back(ParseTuple("110"));  // unsatisfied
  EXPECT_FALSE(s.SatisfiesConjunctionAll(many));
  many.pop_back();
  EXPECT_TRUE(s.SatisfiesConjunctionAll(many));
}

TEST(TupleSetStorageTest, AddAndRemoveCrossTheInlineCapacity) {
  Rng rng(17);
  TupleSet s;
  std::set<Tuple> reference;
  for (int step = 0; step < 400; ++step) {
    Tuple t = rng.Below(12);
    if (rng.Chance(0.4)) {
      s.Remove(t);
      reference.erase(t);
    } else {
      s.Add(t);
      reference.insert(t);
    }
    ASSERT_EQ(Tuples(s), std::vector<Tuple>(reference.begin(), reference.end()))
        << "step " << step;
    // Storage only spills once the inline slots are full.
    if (s.size() > TupleSet::kInlineTuples) {
      ASSERT_GT(s.heap_bytes(), 0u);
    }
    ASSERT_EQ(s.Hash(), TupleSet(s.tuples()).Hash());
  }
  TupleSet grow;
  for (Tuple t = 0; t < TupleSet::kInlineTuples; ++t) grow.Add(t);
  EXPECT_EQ(grow.heap_bytes(), 0u);
  grow.Add(99);
  EXPECT_GT(grow.heap_bytes(), 0u);
  EXPECT_EQ(Tuples(grow), (std::vector<Tuple>{0, 1, 2, 99}));
  grow.Remove(1);
  grow.Remove(99);
  EXPECT_EQ(Tuples(grow), (std::vector<Tuple>{0, 2}));
}

TEST(TupleSetStorageTest, AssignPairOnAHeapSet) {
  TupleSet s = HeapSet(10);
  ASSERT_GT(s.heap_bytes(), 0u);
  s.Hash();
  s.AssignPair(9, 4);
  EXPECT_EQ(Tuples(s), (std::vector<Tuple>{4, 9}));
  EXPECT_EQ(s, (TupleSet{4, 9}));
  EXPECT_EQ(s.Hash(), (TupleSet{9, 4}).Hash());
  s.AssignPair(7, 7);
  EXPECT_EQ(Tuples(s), (std::vector<Tuple>{7}));
  EXPECT_EQ(s.Hash(), TupleSet{7}.Hash());
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_EQ(Tuples(s), (std::vector<Tuple>{1, 2, 3, 7}));
}

TEST(TupleSetStorageTest, CopyMoveAndSelfAssignmentOfBothForms) {
  const TupleSet small{3, 1};
  const TupleSet big = HeapSet(7);
  ASSERT_EQ(small.heap_bytes(), 0u);
  ASSERT_GT(big.heap_bytes(), 0u);
  for (const TupleSet* source : {&small, &big}) {
    const std::vector<Tuple> want = Tuples(*source);
    TupleSet copy(*source);
    EXPECT_EQ(copy, *source);
    EXPECT_EQ(copy.Hash(), source->Hash());
    // Copy-assign into an inline target and into a heap target.
    TupleSet into_small{42};
    into_small = *source;
    EXPECT_EQ(Tuples(into_small), want);
    TupleSet into_big = HeapSet(20);
    into_big = *source;
    EXPECT_EQ(Tuples(into_big), want);
    EXPECT_EQ(into_big.Hash(), source->Hash());
    // Move construction and assignment leave the source empty and usable.
    TupleSet moved(std::move(copy));
    EXPECT_EQ(Tuples(moved), want);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy, TupleSet());
    EXPECT_EQ(copy.Hash(), TupleSet().Hash());
    copy.Add(5);
    EXPECT_EQ(Tuples(copy), (std::vector<Tuple>{5}));
    TupleSet target = HeapSet(9);
    target = std::move(moved);
    EXPECT_EQ(Tuples(target), want);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    // Self-assignment is a no-op in both flavours.
    TupleSet& alias = target;
    target = alias;
    EXPECT_EQ(Tuples(target), want);
    target = std::move(alias);
    EXPECT_EQ(Tuples(target), want);
    EXPECT_EQ(target.Hash(), source->Hash());
  }
}

TEST(TupleSetStorageTest, UnionEqualityAndHashAgreeAcrossForms) {
  // Same contents, one inline and one still on the heap after shrinking.
  TupleSet inline_form{2, 4, 6};
  TupleSet heap_form{2, 4, 6, 8, 10};
  heap_form.Remove(8);
  heap_form.Remove(10);
  ASSERT_EQ(inline_form.heap_bytes(), 0u);
  ASSERT_GT(heap_form.heap_bytes(), 0u);
  EXPECT_EQ(inline_form, heap_form);
  EXPECT_EQ(heap_form, inline_form);
  EXPECT_EQ(inline_form.Hash(), heap_form.Hash());
  EXPECT_NE(inline_form, HeapSet(5));

  // Inline ∪ inline spilling to the heap, heap ∪ inline, heap ∪ heap.
  TupleSet spilled = inline_form.Union(TupleSet{1, 3});
  EXPECT_EQ(Tuples(spilled), (std::vector<Tuple>{1, 2, 3, 4, 6}));
  EXPECT_EQ(spilled.Hash(), (TupleSet{6, 4, 3, 2, 1}).Hash());
  EXPECT_EQ(heap_form.Union(TupleSet{4}), inline_form);
  EXPECT_EQ(heap_form.Union(TupleSet{4}).Hash(), inline_form.Hash());
  EXPECT_EQ(HeapSet(5).Union(HeapSet(8)), HeapSet(8));
  EXPECT_EQ(TupleSet().Union(TupleSet()), TupleSet());
}

}  // namespace
}  // namespace qhorn
