/**
 * @file
 * Signature tests: per-implementation behaviour plus property-based
 * sweeps over every kind and size. The load-bearing invariant is the
 * one the paper states in §2: CONFLICT may report false positives but
 * NEVER false negatives.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sig/bit_select_signature.hh"
#include "sig/coarse_bit_select_signature.hh"
#include "sig/counting_signature.hh"
#include "sig/double_bit_select_signature.hh"
#include "sig/perfect_signature.hh"
#include "sig/signature_factory.hh"

namespace logtm {
namespace {

// ---------------------------------------------------------------------
// Property tests parameterized over (kind, bits).
// ---------------------------------------------------------------------

struct SigParam
{
    SigParam(SignatureKind k, uint32_t b) : kind(k), bits(b) {}

    SignatureKind kind;
    // gtest prints the param's raw bytes into the test name; naming the
    // padding keeps it zero, so every build lists the same name.
    uint8_t pad[3] = {};
    uint32_t bits;
};
static_assert(sizeof(SigParam) == 8, "SigParam must have no hidden padding");

std::string
paramName(const testing::TestParamInfo<SigParam> &info)
{
    SignatureConfig c;
    c.kind = info.param.kind;
    c.bits = info.param.bits;
    return c.name();
}

class SignatureProperty : public testing::TestWithParam<SigParam>
{
  protected:
    std::unique_ptr<Signature>
    make() const
    {
        SignatureConfig c;
        c.kind = GetParam().kind;
        c.bits = GetParam().bits;
        return makeSignature(c);
    }
};

TEST_P(SignatureProperty, NoFalseNegatives)
{
    auto sig = make();
    Rng rng(123);
    std::vector<PhysAddr> inserted;
    for (int i = 0; i < 500; ++i) {
        const PhysAddr a = blockAlign(rng.below(1ull << 32));
        sig->insert(a);
        inserted.push_back(a);
        for (PhysAddr b : inserted)
            ASSERT_TRUE(sig->mayContain(b));
    }
}

TEST_P(SignatureProperty, EmptyAfterClear)
{
    auto sig = make();
    Rng rng(5);
    EXPECT_TRUE(sig->empty());
    for (int i = 0; i < 64; ++i)
        sig->insert(blockAlign(rng.below(1ull << 30)));
    EXPECT_FALSE(sig->empty());
    sig->clear();
    EXPECT_TRUE(sig->empty());
    EXPECT_EQ(sig->population(), 0u);
    // After clear nothing previously inserted may still hit ... for
    // exact sets; hashed sets must also be fully cleared.
    Rng rng2(5);
    for (int i = 0; i < 64; ++i)
        EXPECT_FALSE(sig->mayContain(blockAlign(rng2.below(1ull << 30))));
}

TEST_P(SignatureProperty, CloneIsIndependentAndEquivalent)
{
    auto sig = make();
    Rng rng(77);
    std::vector<PhysAddr> inserted;
    for (int i = 0; i < 100; ++i) {
        const PhysAddr a = blockAlign(rng.below(1ull << 28));
        sig->insert(a);
        inserted.push_back(a);
    }
    auto copy = sig->clone();
    for (PhysAddr a : inserted)
        EXPECT_TRUE(copy->mayContain(a));
    // Mutating the copy must not affect the original.
    copy->clear();
    for (PhysAddr a : inserted)
        EXPECT_TRUE(sig->mayContain(a));
}

TEST_P(SignatureProperty, UnionIsSuperset)
{
    auto a = make();
    auto b = make();
    Rng rng(31);
    std::vector<PhysAddr> in_a, in_b;
    for (int i = 0; i < 80; ++i) {
        PhysAddr x = blockAlign(rng.below(1ull << 28));
        a->insert(x);
        in_a.push_back(x);
        x = blockAlign(rng.below(1ull << 28));
        b->insert(x);
        in_b.push_back(x);
    }
    a->unionWith(*b);
    for (PhysAddr x : in_a)
        EXPECT_TRUE(a->mayContain(x));
    for (PhysAddr x : in_b)
        EXPECT_TRUE(a->mayContain(x));
}

TEST_P(SignatureProperty, ElementsRoundTrip)
{
    auto sig = make();
    Rng rng(99);
    std::vector<PhysAddr> inserted;
    for (int i = 0; i < 60; ++i) {
        const PhysAddr a = blockAlign(rng.below(1ull << 26));
        sig->insert(a);
        inserted.push_back(a);
    }
    auto rebuilt = make();
    for (uint64_t e : sig->elements())
        rebuilt->insertRaw(e);
    for (PhysAddr a : inserted)
        EXPECT_TRUE(rebuilt->mayContain(a));
    EXPECT_EQ(rebuilt->population(), sig->population());
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, SignatureProperty,
    testing::Values(
        SigParam{SignatureKind::Perfect, 0},
        SigParam{SignatureKind::BitSelect, 64},
        SigParam{SignatureKind::BitSelect, 2048},
        SigParam{SignatureKind::BitSelect, 8192},
        SigParam{SignatureKind::DoubleBitSelect, 64},
        SigParam{SignatureKind::DoubleBitSelect, 2048},
        SigParam{SignatureKind::CoarseBitSelect, 64},
        SigParam{SignatureKind::CoarseBitSelect, 2048}),
    paramName);

// ---------------------------------------------------------------------
// Implementation-specific behaviour.
// ---------------------------------------------------------------------

TEST(PerfectSignature, ExactMembership)
{
    PerfectSignature sig;
    sig.insert(0x1000);
    EXPECT_TRUE(sig.mayContain(0x1000));
    EXPECT_TRUE(sig.mayContain(0x1004));  // same block
    EXPECT_FALSE(sig.mayContain(0x1040)); // next block
    EXPECT_EQ(sig.population(), 1u);
}

TEST(BitSelectSignature, AliasesExactlyModuloSize)
{
    BitSelectSignature sig(64);
    sig.insert(0);  // block 0 -> bit 0
    EXPECT_TRUE(sig.mayContain(0));
    EXPECT_TRUE(sig.mayContain(64 * blockBytes));   // block 64 aliases
    EXPECT_FALSE(sig.mayContain(1 * blockBytes));
    EXPECT_FALSE(sig.mayContain(63 * blockBytes));
}

TEST(DoubleBitSelectSignature, RequiresBothFieldsToMatch)
{
    DoubleBitSelectSignature sig(2048);  // two 1024-bit halves
    const PhysAddr a = 5 * blockBytes;   // low field 5, high field 0
    sig.insert(a);
    EXPECT_TRUE(sig.mayContain(a));
    // Same low field, different high field: bit 5 set in half A but
    // the corresponding half-B bit differs -> no conflict.
    const PhysAddr b = (5 + 1024) * blockBytes;
    EXPECT_FALSE(sig.mayContain(b));
    // Inserting a second address can create a cross-product false
    // positive -- allowed, but verify the true positives first.
    sig.insert(b);
    EXPECT_TRUE(sig.mayContain(b));
}

TEST(DoubleBitSelectSignature, CrossProductFalsePositive)
{
    // DBS admits FPs when one address contributes the half-A bit and
    // another the half-B bit. Construct that case explicitly.
    DoubleBitSelectSignature sig(256);  // halves of 128, field 7 bits
    const uint64_t f = 128;
    const PhysAddr a = (3 + 5 * f) * blockBytes;  // low 3, high 5
    const PhysAddr b = (9 + 2 * f) * blockBytes;  // low 9, high 2
    sig.insert(a);
    sig.insert(b);
    const PhysAddr fp = (3 + 2 * f) * blockBytes; // low from a, high from b
    EXPECT_TRUE(sig.mayContain(fp));
}

TEST(CoarseBitSelectSignature, TracksMacroblocks)
{
    CoarseBitSelectSignature sig(2048, 1024);
    sig.insert(0x10000);
    // Any block within the same 1 KB macroblock hits.
    EXPECT_TRUE(sig.mayContain(0x10000));
    EXPECT_TRUE(sig.mayContain(0x10040));
    EXPECT_TRUE(sig.mayContain(0x103C0));
    // The neighbouring macroblock does not.
    EXPECT_FALSE(sig.mayContain(0x10400));
    EXPECT_EQ(sig.population(), 1u);
}

TEST(SignatureFactory, BuildsRequestedKinds)
{
    EXPECT_EQ(makeSignature(sigPerfect())->kind(), SignatureKind::Perfect);
    EXPECT_EQ(makeSignature(sigBS(64))->kind(), SignatureKind::BitSelect);
    EXPECT_EQ(makeSignature(sigBS(64))->sizeBits(), 64u);
    EXPECT_EQ(makeSignature(sigDBS(2048))->kind(),
              SignatureKind::DoubleBitSelect);
    EXPECT_EQ(makeSignature(sigCBS(2048))->kind(),
              SignatureKind::CoarseBitSelect);
}

TEST(ExactShadow, TracksBlocks)
{
    ExactShadow s;
    s.insert(0x2000);
    EXPECT_TRUE(s.contains(0x2008));
    EXPECT_FALSE(s.contains(0x2040));
    EXPECT_EQ(s.size(), 1u);
    s.clear();
    EXPECT_FALSE(s.contains(0x2000));
}

// ---------------------------------------------------------------------
// Counting signature (OS summary maintenance).
// ---------------------------------------------------------------------

TEST(CountingSignature, SummaryIsUnionOfContributions)
{
    auto proto = makeSignature(sigBS(256));
    CountingSignature counts(*proto);
    auto s1 = makeSignature(sigBS(256));
    auto s2 = makeSignature(sigBS(256));
    s1->insert(0x1000);
    s2->insert(0x2000);
    counts.addSignature(*s1);
    counts.addSignature(*s2);
    auto sum = counts.summary();
    EXPECT_TRUE(sum->mayContain(0x1000));
    EXPECT_TRUE(sum->mayContain(0x2000));
}

TEST(CountingSignature, RemovalIsExactWithOverlap)
{
    auto proto = makeSignature(sigBS(256));
    CountingSignature counts(*proto);
    auto s1 = makeSignature(sigBS(256));
    auto s2 = makeSignature(sigBS(256));
    s1->insert(0x1000);   // shared element
    s2->insert(0x1000);
    s2->insert(0x3000);
    counts.addSignature(*s1);
    counts.addSignature(*s2);
    counts.removeSignature(*s2);
    auto sum = counts.summary();
    // s1's contribution must survive s2's removal.
    EXPECT_TRUE(sum->mayContain(0x1000));
    EXPECT_FALSE(sum->mayContain(0x3000));
    counts.removeSignature(*s1);
    EXPECT_TRUE(counts.empty());
}

TEST(CountingSignature, WorksWithPerfectSignatures)
{
    auto proto = makeSignature(sigPerfect());
    CountingSignature counts(*proto);
    auto s1 = makeSignature(sigPerfect());
    s1->insert(0x4000);
    counts.addSignature(*s1);
    EXPECT_TRUE(counts.summary()->mayContain(0x4000));
    counts.removeSignature(*s1);
    EXPECT_TRUE(counts.empty());
}

} // namespace
} // namespace logtm
