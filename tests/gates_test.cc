/**
 * @file
 * Parameterized tests of the gate metadata table: every GateKind has
 * consistent arity, name round trip and classification flags.
 */

#include <gtest/gtest.h>

#include "circuit/gates.h"

namespace qsurf::circuit {
namespace {

const std::vector<GateKind> &
allKinds()
{
    static const std::vector<GateKind> kinds{
        GateKind::H,     GateKind::X,       GateKind::Y,
        GateKind::Z,     GateKind::S,       GateKind::Sdag,
        GateKind::T,     GateKind::Tdag,    GateKind::Rz,
        GateKind::CNOT,  GateKind::CZ,      GateKind::Swap,
        GateKind::Toffoli, GateKind::PrepZ, GateKind::PrepX,
        GateKind::MeasZ, GateKind::MeasX,
    };
    return kinds;
}

class GateKindTest : public ::testing::TestWithParam<GateKind>
{
};

TEST_P(GateKindTest, NameRoundTrips)
{
    GateKind kind = GetParam();
    auto back = gateFromName(gateName(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
}

TEST_P(GateKindTest, ArityIsSane)
{
    int arity = gateArity(GetParam());
    EXPECT_GE(arity, 1);
    EXPECT_LE(arity, 3);
}

TEST_P(GateKindTest, FlagsAreConsistent)
{
    GateKind kind = GetParam();
    // A gate cannot be both a measurement and a preparation.
    EXPECT_FALSE(isMeasurement(kind) && isPreparation(kind));
    // Magic-state consumers are not Clifford.
    if (consumesMagicState(kind)) {
        EXPECT_FALSE(isClifford(kind));
    }
    // Gates needing decomposition are never magic consumers directly.
    if (needsDecomposition(kind)) {
        EXPECT_FALSE(consumesMagicState(kind));
    }
}

INSTANTIATE_TEST_SUITE_P(AllGates, GateKindTest,
                         ::testing::ValuesIn(allKinds()));

TEST(Gates, CountMatchesTable)
{
    EXPECT_EQ(static_cast<int>(allKinds().size()), num_gate_kinds);
}

TEST(Gates, SpecificArities)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::CNOT), 2);
    EXPECT_EQ(gateArity(GateKind::Toffoli), 3);
    EXPECT_EQ(gateArity(GateKind::MeasZ), 1);
}

TEST(Gates, MagicConsumers)
{
    EXPECT_TRUE(consumesMagicState(GateKind::T));
    EXPECT_TRUE(consumesMagicState(GateKind::Tdag));
    EXPECT_FALSE(consumesMagicState(GateKind::S));
}

TEST(Gates, DecompositionSet)
{
    EXPECT_TRUE(needsDecomposition(GateKind::Toffoli));
    EXPECT_TRUE(needsDecomposition(GateKind::Rz));
    EXPECT_FALSE(needsDecomposition(GateKind::CNOT));
}

TEST(Gates, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(gateFromName("NOTAGATE").has_value());
    EXPECT_FALSE(gateFromName("h").has_value()); // case sensitive
    EXPECT_FALSE(gateFromName("").has_value());
}

} // namespace
} // namespace qsurf::circuit
