// SAT subsystem: CDCL solver, Tseitin encoder, equivalence proofs,
// windowed move proofs.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "netlist/builder.hpp"
#include "place/placer.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"
#include "sat/window.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using sat::Lit;
using sat::SatStatus;
using sat::Solver;

// --- solver core ------------------------------------------------------------

TEST(SatSolver, TrivialSatAndUnsat) {
  Solver s;
  const int a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause(Lit(a, false), Lit(b, false)));
  EXPECT_TRUE(s.add_clause(Lit(a, true), Lit(b, false)));
  EXPECT_EQ(s.solve(), SatStatus::Sat);
  EXPECT_TRUE(s.model_value(b));  // b must be true in every model

  // Adding !b makes the formula UNSAT; add_clause may already report that
  // (b is pinned true at the root level by the previous solve's learning).
  s.add_clause(Lit(b, true));
  EXPECT_EQ(s.solve(), SatStatus::Unsat);
}

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  // x0 -> x1 -> ... -> x9, assert x0, deny x9: UNSAT.
  std::vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_clause(Lit(v[i], true), Lit(v[i + 1], false));
  }
  s.add_clause(Lit(v[0], false));
  EXPECT_EQ(s.solve(), SatStatus::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_value(v[i]));
  s.add_clause(Lit(v[9], true));
  EXPECT_EQ(s.solve(), SatStatus::Unsat);
}

TEST(SatSolver, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  Solver s;
  constexpr int P = 4, H = 3;
  int var[P][H];
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve(), SatStatus::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, AssumptionsAreIncremental) {
  Solver s;
  const int a = s.new_var(), b = s.new_var();
  s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
  // Under assumption a: b is forced; model must have both.
  EXPECT_EQ(s.solve({Lit(a, false)}), SatStatus::Sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // Under assumptions a & !b: UNSAT, but only under assumptions —
  // the solver must remain usable.
  EXPECT_EQ(s.solve({Lit(a, false), Lit(b, true)}), SatStatus::Unsat);
  EXPECT_EQ(s.solve({Lit(a, false)}), SatStatus::Sat);
  EXPECT_EQ(s.solve(), SatStatus::Sat);
}

TEST(SatSolver, AddClauseAfterFailedAssumptions) {
  // A failed assumption must leave the solver back at decision level 0:
  // add_clause after an assumptions-Unsat solve() is a legal sequence and
  // must not see phantom assignments from the failed assumption prefix.
  Solver s;
  const int a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
  EXPECT_EQ(s.solve({Lit(a, false), Lit(b, true)}), SatStatus::Unsat);
  s.add_clause(Lit(b, true), Lit(c, false));  // b -> c
  EXPECT_EQ(s.solve({Lit(a, false)}), SatStatus::Sat);
  EXPECT_TRUE(s.model_value(c));
  EXPECT_EQ(s.solve({Lit(a, false), Lit(c, true)}), SatStatus::Unsat);
  EXPECT_EQ(s.solve(), SatStatus::Sat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  // A hard instance (8 pigeons / 7 holes) with a tiny budget.
  Solver s;
  constexpr int P = 8, H = 7;
  std::vector<std::vector<int>> var(P, std::vector<int>(H));
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve({}, 10), SatStatus::Unknown);
}

TEST(SatSolver, AddClauseAfterBudgetUnknown) {
  // Regression: a budget-exhausted solve (Unknown) must leave the trail at
  // decision level 0 — add_clause and a re-solve on the same solver is a
  // legal sequence and must see no phantom assignments (same class as the
  // assumptions-Unsat bug fixed previously; the root-backtrack is now
  // enforced structurally on every exit path of solve()).
  Solver s;
  constexpr int P = 8, H = 7;
  std::vector<std::vector<int>> var(P, std::vector<int>(H));
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  ASSERT_EQ(s.solve({}, 10), SatStatus::Unknown);
  // Adding clauses and re-solving (to completion) must work and agree with
  // the instance's real verdict.
  const int x = s.new_var();
  EXPECT_TRUE(s.add_clause(Lit(x, false), Lit(var[0][0], true)));
  EXPECT_EQ(s.solve(), SatStatus::Unsat);

  // Same sequence with the budget exhausted mid-assumptions.
  Solver u;
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = u.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    u.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        u.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  ASSERT_EQ(u.solve({Lit(var[0][0], false), Lit(var[1][1], false)}, 5),
            SatStatus::Unknown);
  EXPECT_TRUE(u.add_clause(Lit(var[0][0], true)));
  EXPECT_EQ(u.solve(), SatStatus::Unsat);
}

TEST(SatSolver, ReduceDbPreservesUnsatVerdicts) {
  // Aggressive clause-DB reduction must not lose completeness: the 9/8
  // pigeonhole is UNSAT no matter how many learned clauses get evicted.
  Solver s;
  s.set_reduce_policy(60, 1.2);
  constexpr int P = 9, H = 8;
  std::vector<std::vector<int>> var(P, std::vector<int>(H));
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve(), SatStatus::Unsat);
  EXPECT_GT(s.stats().reduce_dbs, 0u);
  EXPECT_GT(s.stats().learned_deleted, 0u);
}

TEST(SatSolver, ReduceDbAgreesWithBruteForceOnRandomFormulas) {
  // Same cross-check as RandomFormulasAgreeWithBruteForce, but with the
  // reduction schedule tight enough to trigger repeatedly on hard draws.
  Rng rng(0xdb0001);
  int reduced_rounds = 0;
  for (int round = 0; round < 40; ++round) {
    const int n = 12 + static_cast<int>(rng.next_below(5));       // 12..16 vars
    const int m = static_cast<int>(4.3 * n + rng.next_below(5));  // ~hard density
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<int> cl;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        cl.push_back(rng.next_bool() ? v : -v);
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (std::uint32_t m2 = 0; m2 < (1u << n) && !brute_sat; ++m2) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          if ((l > 0) == (((m2 >> (std::abs(l) - 1)) & 1) != 0)) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    Solver s;
    s.set_reduce_policy(4, 1.0);  // reduce almost constantly
    for (int v = 0; v < n; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (const int l : cl) lits.push_back(Lit(std::abs(l) - 1, l < 0));
      consistent = s.add_clause(lits) && consistent;
    }
    const SatStatus st = consistent ? s.solve() : SatStatus::Unsat;
    EXPECT_EQ(st == SatStatus::Sat, brute_sat) << "round " << round;
    if (st == SatStatus::Sat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          if ((l > 0) == s.model_value(std::abs(l) - 1)) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
    if (consistent && s.stats().reduce_dbs > 0) ++reduced_rounds;
  }
  // The schedule must actually have fired, or the test is vacuous.
  EXPECT_GT(reduced_rounds, 5);
}

TEST(SatSolver, ReduceDbReclaimsRetractedEncoderGroups) {
  // A rolled-back activation group leaves root-satisfied problem clauses;
  // the next reduce_db() must sweep them (this is how abandoned proof
  // windows are physically reclaimed).
  Solver s;
  s.set_reduce_policy(40, 1.2);
  sat::CnfEncoder enc(s);
  enc.begin_group();
  std::vector<Lit> ins;
  for (int i = 0; i < 12; ++i) ins.push_back(enc.fresh());
  for (int i = 0; i + 1 < 12; ++i) enc.and_of({ins[i], ins[i + 1]});
  const std::size_t clauses_with_group = s.num_problem_clauses();
  enc.rollback_group();
  ASSERT_GT(clauses_with_group, 0u);

  // A hard instance to force conflicts (and with them, reductions).
  constexpr int P = 8, H = 7;
  std::vector<std::vector<int>> var(P, std::vector<int>(H));
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) var[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit(var[p][h], false));
    s.add_clause(c);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
      }
    }
  }
  EXPECT_EQ(s.solve(), SatStatus::Unsat);
  EXPECT_GT(s.stats().reduce_dbs, 0u);
  // Every clause of the retracted group was root-satisfied via ~act.
  EXPECT_GE(s.stats().problem_deleted, clauses_with_group);
}

TEST(SatSolver, RandomFormulasAgreeWithBruteForce) {
  // Cross-check the solver against exhaustive enumeration on small random
  // 3-CNF instances around the phase-transition density.
  Rng rng(0xc0ffee);
  for (int round = 0; round < 50; ++round) {
    const int n = 6 + static_cast<int>(rng.next_below(5));       // 6..10 vars
    const int m = static_cast<int>(4.3 * n + rng.next_below(5));  // ~hard density
    std::vector<std::vector<int>> clauses;  // signed DIMACS-style
    for (int c = 0; c < m; ++c) {
      std::vector<int> cl;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        cl.push_back(rng.next_bool() ? v : -v);
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (std::uint32_t m2 = 0; m2 < (1u << n) && !brute_sat; ++m2) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          const bool val = (m2 >> (std::abs(l) - 1)) & 1;
          if ((l > 0) == val) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    Solver s;
    for (int v = 0; v < n; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (const int l : cl) lits.push_back(Lit(std::abs(l) - 1, l < 0));
      consistent = s.add_clause(lits) && consistent;
    }
    const SatStatus st = consistent ? s.solve() : SatStatus::Unsat;
    EXPECT_EQ(st == SatStatus::Sat, brute_sat) << "round " << round;
    if (st == SatStatus::Sat) {
      // The model must actually satisfy every clause.
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          if ((l > 0) == s.model_value(std::abs(l) - 1)) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

// --- encoder ----------------------------------------------------------------

TEST(CnfEncoder, StructuralHashingCollapsesIdenticalNodes) {
  Solver s;
  sat::CnfEncoder enc(s);
  const Lit a = enc.fresh(), b = enc.fresh(), c = enc.fresh();
  const Lit x = enc.and_of({a, b, c});
  const Lit y = enc.and_of({c, a, b});  // commutative: same node
  EXPECT_EQ(x, y);
  EXPECT_GT(enc.cache_hits(), 0u);
  // De Morgan sharing: OR(~a,~b,~c) is ~AND(a,b,c).
  const Lit z = enc.or_of({~a, ~b, ~c});
  EXPECT_EQ(z, ~x);
}

TEST(CnfEncoder, XorNormalization) {
  Solver s;
  sat::CnfEncoder enc(s);
  const Lit a = enc.fresh(), b = enc.fresh();
  EXPECT_EQ(enc.xor_of({a, a}), enc.constant(false));
  EXPECT_EQ(enc.xor_of({a, ~a}), enc.constant(true));
  EXPECT_EQ(enc.xor_of({a, b}), enc.xor_of({b, a}));
  EXPECT_EQ(enc.xor_of({a, b}), ~enc.xor_of({~a, b}));
  EXPECT_EQ(enc.xor_of({a, enc.constant(true)}), ~a);
}

TEST(CnfEncoder, AndSimplifications) {
  Solver s;
  sat::CnfEncoder enc(s);
  const Lit a = enc.fresh(), b = enc.fresh();
  EXPECT_EQ(enc.and_of({a, a, b}), enc.and_of({a, b}));
  EXPECT_EQ(enc.and_of({a, ~a}), enc.constant(false));
  EXPECT_EQ(enc.and_of({a, enc.constant(true)}), a);
  EXPECT_EQ(enc.and_of({a, enc.constant(false)}), enc.constant(false));
  EXPECT_EQ(enc.and_of({a}), a);
}

// --- SAT equivalence tier ---------------------------------------------------

TEST(SatEquivalence, ProvesCloneAndRefutesMutant) {
  const Network a = rapids::testing::random_mapped_network(1234, 18, 80, 5);
  const SatEquivalenceResult ok = check_equivalence_sat(a, a.clone());
  EXPECT_EQ(ok.status, SatEquivalenceResult::Status::Proved);
  // A clone is structurally identical: hashing alone should discharge it.
  EXPECT_EQ(ok.outputs_proved_structurally, a.primary_outputs().size());

  Network b = a.clone();
  for (const GateId g : b.gates()) {
    if (is_multi_input(b.type(g)) && b.fanout_count(g) > 0) {
      b.set_type(g, inverted_type(b.type(g)));
      break;
    }
  }
  const SatEquivalenceResult bad = check_equivalence_sat(a, b);
  // The flipped gate output complements everywhere; some PO must differ
  // unless the gate is unobservable — the generator has no such gates on
  // this seed (cross-checked below against the simulation tier).
  const EquivalenceResult sim = check_equivalence(a, b);
  EXPECT_EQ(bad.status == SatEquivalenceResult::Status::NotEquivalent, !sim.equivalent);
  if (bad.status == SatEquivalenceResult::Status::NotEquivalent) {
    EXPECT_FALSE(bad.failing_output.empty());
    EXPECT_EQ(bad.counterexample.size(), a.primary_inputs().size());
  }
}

TEST(SatEquivalence, AgreesWithExhaustiveOnSmallRandomNetworks) {
  // Every <= 14-PI network is decidable by both tiers; their verdicts must
  // match on equivalent pairs AND on seeded mutants.
  int mutants_refuted = 0;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const int pis = 4 + static_cast<int>(seed % 11);  // 4..14
    const Network a = rapids::testing::random_mapped_network(seed, pis, 40, 4);

    EquivalenceOptions eopt;  // default: exhaustive at <= 14 PIs
    const EquivalenceResult ex_same = check_equivalence(a, a.clone(), eopt);
    ASSERT_TRUE(ex_same.exhaustive);
    const SatEquivalenceResult sat_same = check_equivalence_sat(a, a.clone());
    EXPECT_EQ(sat_same.status, SatEquivalenceResult::Status::Proved) << "seed " << seed;

    Network b = a.clone();
    for (const GateId g : rapids::testing::live_gates(b)) {
      if (is_multi_input(b.type(g)) && b.fanout_count(g) > 0) {
        b.set_type(g, inverted_type(b.type(g)));
        break;
      }
    }
    const EquivalenceResult ex_mut = check_equivalence(a, b, eopt);
    const SatEquivalenceResult sat_mut = check_equivalence_sat(a, b);
    EXPECT_EQ(sat_mut.status == SatEquivalenceResult::Status::Proved, ex_mut.equivalent)
        << "seed " << seed;
    if (!ex_mut.equivalent) ++mutants_refuted;
  }
  // The loop must not be vacuous: most mutants are observable.
  EXPECT_GT(mutants_refuted, 20);
}

TEST(SatEquivalence, CountsPatternsAndProvesThroughCheckEquivalence) {
  // sat_proof escalation: a 20-PI pair is beyond the default exhaustive
  // limit; with SAT enabled the verdict must be proved, not sampled.
  const Network a = rapids::testing::random_mapped_network(77, 20, 90, 6);
  EquivalenceOptions eopt;
  eopt.sat_proof = true;
  const EquivalenceResult r = check_equivalence(a, a.clone(), eopt);
  EXPECT_TRUE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_TRUE(r.proved);
  EXPECT_GT(r.patterns, 0u);

  EquivalenceOptions no_sat;
  const EquivalenceResult r2 = check_equivalence(a, a.clone(), no_sat);
  EXPECT_TRUE(r2.equivalent);
  EXPECT_FALSE(r2.proved);  // random tier alone never proves
}

TEST(SatEquivalence, DetectsSwappedNonSymmetricInputs) {
  // f = a & !b vs f = b & !a: random vectors catch this instantly, SAT must
  // report a genuine counterexample too.
  NetworkBuilder b1;
  const GateId a1 = b1.input("a"), c1 = b1.input("b");
  b1.output("f", b1.and_({a1, b1.inv(c1)}));
  const Network n1 = b1.take();

  NetworkBuilder b2;
  const GateId a2 = b2.input("a"), c2 = b2.input("b");
  b2.output("f", b2.and_({c2, b2.inv(a2)}));
  const Network n2 = b2.take();

  const SatEquivalenceResult r = check_equivalence_sat(n1, n2);
  ASSERT_EQ(r.status, SatEquivalenceResult::Status::NotEquivalent);
  EXPECT_EQ(r.failing_output, "f");
  // Counterexample must set a=1,b=0 or a=0,b=1.
  ASSERT_EQ(r.counterexample.size(), 2u);
  EXPECT_NE(r.counterexample[0], r.counterexample[1]);
}

TEST(SatEquivalenceSuite, AgreesWithExhaustiveOnSmallSuiteCircuits) {
  // The smallest Table 1 circuits are still exhaustible (<= 22 PIs); the
  // SAT tier must agree with full enumeration on identity and on a mutant.
  for (const std::string name : {"alu2", "c1908"}) {
    const Network src = make_benchmark(name);
    ASSERT_LE(src.primary_inputs().size(), 22u);
    const Network mapped = rapids::testing::mapped(src);

    EquivalenceOptions eopt;
    eopt.exhaustive_pi_limit = 22;
    const EquivalenceResult ex = check_equivalence(src, mapped, eopt);
    ASSERT_TRUE(ex.exhaustive) << name;
    EXPECT_TRUE(ex.equivalent) << name;
    const SatEquivalenceResult sat = check_equivalence_sat(src, mapped);
    EXPECT_EQ(sat.status, SatEquivalenceResult::Status::Proved) << name;

    Network broken = mapped.clone();
    for (const GateId g : broken.gates()) {
      if (is_multi_input(broken.type(g)) && broken.fanout_count(g) > 0) {
        broken.set_type(g, inverted_type(broken.type(g)));
        break;
      }
    }
    const EquivalenceResult ex_mut = check_equivalence(src, broken, eopt);
    const SatEquivalenceResult sat_mut = check_equivalence_sat(src, broken);
    EXPECT_EQ(sat_mut.status == SatEquivalenceResult::Status::Proved,
              ex_mut.equivalent)
        << name;
  }
}

// --- windowed move proofs ---------------------------------------------------

TEST(WindowChecker, ProvesNoOpAndRefutesRealEdit) {
  // f = AND(a, b, c); "move" swaps fanins 0 and 1 (function-preserving),
  // then a second "move" replaces a fanin (function-changing).
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c");
  const GateId g = b.and_({a, x, c});
  b.output("f", g);
  Network net = b.take();

  const GateId changed[] = {g};
  sat::WindowChecker checker;
  checker.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, a);  // swap: AND is symmetric
  EXPECT_TRUE(checker.check(net, {}));

  checker.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 2}, a);  // AND(x,a,a): drops the c input — different
  std::string diag;
  EXPECT_FALSE(checker.check(net, {}, &diag));
  EXPECT_NE(diag.find("function changed"), std::string::npos);
}

TEST(WindowChecker, DoubleBeginResetsCleanly) {
  // begin-begin without an intervening check (a probe abandoned mid-
  // flight): the second window must not see the first window's affected
  // set, cut variables or pre literals.
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c");
  const GateId g = b.and_({a, x, c});
  const GateId h = b.or_({a, c});
  b.output("f", g);
  b.output("f2", h);
  Network net = b.take();

  sat::WindowChecker checker;
  // First begin: a window at h that is then abandoned mid-flight.
  const GateId changed_h[] = {h};
  checker.begin(net, {&h, 1}, changed_h);
  // Second begin on a DIFFERENT window; verdicts must be exactly what a
  // fresh checker would produce.
  const GateId changed_g[] = {g};
  checker.begin(net, {&g, 1}, changed_g);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, a);  // symmetric swap: function preserved
  EXPECT_TRUE(checker.check(net, {}));
  EXPECT_EQ(checker.stats().moves_checked, 1u);

  // And the failing direction after another double begin.
  checker.begin(net, {&h, 1}, changed_h);
  checker.begin(net, {&g, 1}, changed_g);
  net.set_fanin(Pin{g, 2}, a);  // drops input c: function changed
  std::string diag;
  EXPECT_FALSE(checker.check(net, {}, &diag));
  EXPECT_NE(diag.find("function changed"), std::string::npos);
}

TEST(WindowChecker, StatsCountEachMoveExactlyOnce) {
  // moves_checked / window_gates / conflicts are bumped once per
  // begin/check pair — a failed check that the caller escalates must not
  // have double-counted the re-encoded cone, and a second begin/check
  // accumulates deltas, not cumulative solver counters.
  NetworkBuilder b;
  const GateId a = b.input("a"), x = b.input("b"), c = b.input("c");
  const GateId g = b.and_({a, x, c});
  b.output("f", g);
  Network net = b.take();

  sat::WindowChecker checker;
  const GateId changed[] = {g};
  checker.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, x);
  net.set_fanin(Pin{g, 1}, a);
  ASSERT_TRUE(checker.check(net, {}));
  const auto after_first = checker.stats();
  EXPECT_EQ(after_first.moves_checked, 1u);

  // Identical second move: every counter must advance by the same delta
  // (cumulative re-adds would at least double the previous total).
  checker.begin(net, {&g, 1}, changed);
  net.set_fanin(Pin{g, 0}, a);
  net.set_fanin(Pin{g, 1}, x);
  ASSERT_TRUE(checker.check(net, {}));
  const auto after_second = checker.stats();
  EXPECT_EQ(after_second.moves_checked, 2u);
  EXPECT_EQ(after_second.window_gates - after_first.window_gates,
            after_first.window_gates);
  EXPECT_EQ(after_second.conflicts - after_first.conflicts, after_first.conflicts);
}

TEST(WindowChecker, DetectsUndominatedEdit) {
  // Changed gate drives a PO directly; observation root elsewhere cannot
  // dominate it — the checker must refuse rather than vacuously pass.
  NetworkBuilder b;
  const GateId a = b.input("a"), c = b.input("b");
  const GateId g = b.and_({a, c});
  const GateId h = b.or_({a, c});
  b.output("f", g);
  b.output("f2", h);
  Network net = b.take();

  const GateId changed[] = {g};
  sat::WindowChecker checker;
  checker.begin(net, {&h, 1}, changed);  // wrong root: h does not dominate g
  net.set_fanin(Pin{g, 0}, c);
  std::string diag;
  EXPECT_FALSE(checker.check(net, {}, &diag));
  EXPECT_NE(diag.find("without passing"), std::string::npos);
}

// --- post-flow proofs (beyond the random-vector tier) -----------------------

class SatFlowSlow : public ::testing::TestWithParam<const char*> {};

TEST_P(SatFlowSlow, ProvesPostFlowEquivalence) {
  // Run the full optimize flow and PROVE the result equivalent. These
  // circuits are all beyond the default exhaustive limit (20-54 PIs), so
  // without SAT the flow's verdict would rest on random sampling alone.
  const CellLibrary& lib = rapids::testing::lib035();
  FlowOptions options;
  options.verify = false;  // this test does its own, stronger check
  const PreparedCircuit prepared = prepare_benchmark(GetParam(), lib, options);
  ASSERT_GT(prepared.mapped.primary_inputs().size(), 14u);
  const ModeRun run = run_mode(prepared, lib, OptMode::GsgPlusGS, options);
  EXPECT_GT(run.result.swaps_committed + run.result.resizes_committed, 0);

  const SatEquivalenceResult proof = check_equivalence_sat(prepared.mapped, run.optimized);
  EXPECT_EQ(proof.status, SatEquivalenceResult::Status::Proved) << GetParam();
  EXPECT_EQ(proof.outputs_proved_structurally + proof.outputs_proved_by_sat,
            prepared.mapped.primary_outputs().size());
}

INSTANTIATE_TEST_SUITE_P(Table1, SatFlowSlow,
                         ::testing::Values("alu2", "c432", "c499"));

TEST(ParanoidFlowSlow, EveryCommittedMoveIsProved) {
  // --paranoid end to end: each committed move discharged on its window,
  // serial and parallel commit paths alike.
  const CellLibrary& lib = rapids::testing::lib035();
  FlowOptions options;
  options.opt.paranoid = true;
  const PreparedCircuit prepared = prepare_benchmark("c499", lib, options);
  const ModeRun serial = run_mode(prepared, lib, OptMode::GsgPlusGS, options);
  EXPECT_TRUE(serial.verified);
  EXPECT_EQ(serial.result.moves_proved,
            static_cast<std::uint64_t>(serial.result.swaps_committed));

  options.opt.threads = 3;
  const ModeRun parallel = run_mode(prepared, lib, OptMode::GsgPlusGS, options);
  EXPECT_TRUE(parallel.verified);
  EXPECT_EQ(parallel.result.final_delay, serial.result.final_delay);
  EXPECT_EQ(parallel.result.moves_proved, serial.result.moves_proved);
}

TEST(Paranoid, EngineCommitRunsTheProver) {
  // A legitimate swap committed through a paranoid engine must pass the
  // proof session and be counted, with and without the per-move reference
  // prover beside it (the rejection paths are pinned down by the
  // WindowChecker/ProofSession tests above).
  const CellLibrary& lib = rapids::testing::lib035();
  const Network src = make_benchmark("alu2");
  for (const bool self_check : {false, true}) {
    Network net = rapids::testing::mapped(src);
    Placement pl = place(net, lib, PlacerOptions{});
    Sta sta(net, lib, pl);
    sta.run_full();
    RewireEngine engine(net, pl, lib, sta);
    engine.set_paranoid(true);
    engine.set_self_check(self_check);
    EXPECT_EQ(engine.session_stats(), nullptr);  // built by the first proof

    const GisgPartition& part = engine.partition();
    // Find a swappable candidate.
    std::vector<SwapCandidate> cands;
    for (std::size_t s = 0; s < part.sgs.size() && cands.empty(); ++s) {
      if (part.sgs[s].is_trivial()) continue;
      cands = enumerate_swaps(part, static_cast<int>(s), net);
    }
    ASSERT_FALSE(cands.empty());
    // A legitimate commit proves fine.
    engine.commit(EngineMove::swap(cands[0]));
    EXPECT_EQ(engine.paranoid_moves_checked(), 1u);
    ASSERT_EQ(engine.paranoid_verdicts().size(), 1u);
    EXPECT_EQ(engine.paranoid_verdicts()[0], ProofVerdict::WindowProved);
    ASSERT_NE(engine.session_stats(), nullptr);
    EXPECT_EQ(engine.session_stats()->moves_checked, 1u);
    EXPECT_EQ(engine.session_stats()->windows_kept, 1u);
  }
}

TEST(WindowChecker, InverterReuseCorrelationIsKept) {
  // Regression for the alu2 paranoid failure: a pin rewired from INV(x)
  // to x itself (inverting swap with inverter reuse) must still prove —
  // the boundary inverter may not become a free cut variable.
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId ix = b.inv(x);
  const GateId g = b.nor({ix, y});
  const GateId r = b.inv(g);
  b.output("f", r);
  // Keep ix alive through a second sink so it stays on the boundary.
  b.output("f2", b.buf(ix));
  Network net = b.take();

  // "Move": rewire g's pin 0 from ix to a fresh inverter chain equal to it.
  const GateId changed[] = {g};
  sat::WindowChecker checker;
  checker.begin(net, {&r, 1}, changed);
  const GateId ix2 = net.add_gate(GateType::Inv);
  net.add_fanin(ix2, x);
  net.set_fanin(Pin{g, 0}, ix2);
  const GateId created[] = {ix2};
  EXPECT_TRUE(checker.check(net, created));
}

}  // namespace
}  // namespace rapids
