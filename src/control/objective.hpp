// Optimization objectives over channel observations.
//
// Each of the paper's three applications (Section 1) becomes an Objective:
// link enhancement maximizes worst-subcarrier SNR (or MCS throughput),
// network harmonization rewards complementary frequency selectivity across
// links while punishing interference channels, and large-MIMO improvement
// minimizes the channel matrix condition number.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "phy/ru.hpp"

namespace press::control {

/// What a controller sees after measuring under one configuration.
struct Observation {
    /// Per observed link, the per-used-subcarrier SNR in dB.
    std::vector<std::vector<double>> link_snr_db;
    /// Per-subcarrier MIMO condition numbers in dB (empty when the scenario
    /// is not MIMO).
    std::vector<double> mimo_condition_db;
};

/// A fusable reduction shape: advertises that score(obs) depends only on
/// obs.link_snr_db[link] through a min or mean, so an owner of the
/// factored channel cache can compute the score directly from the
/// accumulated SoA response — no Observation materialized, no per-link
/// vectors filled. kNone means "score through the general path".
struct FusedSpec {
    enum class Kind { kNone, kMinSnr, kMeanSnr };
    Kind kind = Kind::kNone;
    std::size_t link = 0;
    /// Optional RU mask (wideband preamble puncturing, DESIGN.md §15):
    /// when non-null, the reduction runs over only the mask's active
    /// tones, and a cache-backed owner may restrict both the basis
    /// accumulation and the sounding to the tiles the mask touches. The
    /// pointer must outlive the optimization run (objectives returning
    /// one point at a mask they own).
    const phy::RuMask* mask = nullptr;
};

/// One link's contribution to a composite multi-link objective: the
/// link's per-subcarrier SNR span reduced through `reduce` to a value
/// v (dB), turned into a utility
///
///     u = weight * v - qos_weight * max(0, qos_floor_db - v)
///
/// The hinge term charges nothing while the link clears its QoS floor
/// and a linear penalty (slope qos_weight) per dB of shortfall below
/// it; the defaults (floor -inf, qos_weight 0) disable it. Negative
/// `weight` turns the term into an interference-nulling objective: the
/// combined score improves as the victim link's SNR drops.
struct LinkTerm {
    std::size_t link = 0;
    /// Per-subcarrier reduction of the link's SNR span. kNone is invalid
    /// here — a term must reduce to a scalar.
    FusedSpec::Kind reduce = FusedSpec::Kind::kMeanSnr;
    double weight = 1.0;
    double qos_floor_db = -std::numeric_limits<double>::infinity();
    double qos_weight = 0.0;
};

/// The fusable shape of a composite multi-link objective: per-link
/// terms combined by a weighted sum or by max-min (maximize the worst
/// term utility — fairness / harmonization). An owner of the shared
/// multi-link basis (core::MultiLinkCache) scores this straight from the
/// stacked group responses, no Observation materialized.
struct MultiLinkSpec {
    enum class Combine { kWeightedSum, kMaxMin };
    std::vector<LinkTerm> terms;
    Combine combine = Combine::kWeightedSum;
};

/// A figure of merit; larger is better.
class Objective {
public:
    virtual ~Objective() = default;
    virtual double score(const Observation& obs) const = 0;
    /// The objective's fusable shape; kNone (the default) keeps the
    /// general Observation path. Overriders guarantee that the fused
    /// reduction over link_snr_db[link] equals score(obs) up to reduction
    /// association (min: exactly; mean: blocked vs sequential ulps).
    virtual FusedSpec fused_spec() const { return {}; }
    /// The objective's composite multi-link shape, or nullptr (the
    /// default). Overriders guarantee score(obs) equals the combinator
    /// applied to the per-term reductions (same association caveat as
    /// fused_spec; the returned pointer stays owned by the objective).
    virtual const MultiLinkSpec* multilink_spec() const { return nullptr; }
    virtual std::string name() const = 0;
};

/// Maximizes the minimum per-subcarrier SNR of one link (removes nulls).
class MinSnrObjective : public Objective {
public:
    explicit MinSnrObjective(std::size_t link = 0) : link_(link) {}
    double score(const Observation& obs) const override;
    FusedSpec fused_spec() const override {
        return {FusedSpec::Kind::kMinSnr, link_};
    }
    std::string name() const override { return "max-min-subcarrier-SNR"; }

private:
    std::size_t link_;
};

/// Maximizes the mean per-subcarrier SNR of one link.
class MeanSnrObjective : public Objective {
public:
    explicit MeanSnrObjective(std::size_t link = 0) : link_(link) {}
    double score(const Observation& obs) const override;
    FusedSpec fused_spec() const override {
        return {FusedSpec::Kind::kMeanSnr, link_};
    }
    std::string name() const override { return "max-mean-SNR"; }

private:
    std::size_t link_;
};

/// Per-RU masked single-link objective: the min or mean per-subcarrier
/// SNR over ONLY the active tones of an RU mask (996-tone and wider
/// numerologies schedule per-RU and puncture preamble-incumbent RUs; see
/// docs/OBJECTIVES.md). Fusable: fused_spec() carries the mask, so
/// System::optimize_fast sounds and reduces only the active tones and
/// bounds the basis accumulation to the subcarrier tiles the mask
/// intersects. The general Observation path reads the same tones out of
/// the full-width SNR span (min matches the fused scorer exactly, mean
/// up to blocked-vs-sequential association ulps — the FusedSpec
/// contract; the noise draws differ because the fused path sounds only
/// active tones).
class MaskedSnrObjective : public Objective {
public:
    MaskedSnrObjective(phy::RuMask mask, FusedSpec::Kind reduce,
                       std::size_t link = 0);
    double score(const Observation& obs) const override;
    FusedSpec fused_spec() const override {
        return {reduce_, link_, &mask_};
    }
    std::string name() const override;

    const phy::RuMask& mask() const { return mask_; }

private:
    phy::RuMask mask_;
    FusedSpec::Kind reduce_;
    std::size_t link_;
};

/// Maximizes the selected-MCS PHY throughput of one link (the paper's
/// "greater bit rate ... to higher layers").
class ThroughputObjective : public Objective {
public:
    explicit ThroughputObjective(std::size_t link = 0) : link_(link) {}
    double score(const Observation& obs) const override;
    std::string name() const override { return "max-throughput"; }

private:
    std::size_t link_;
};

/// A weighted sum of band-average SNRs across links. Building block for
/// harmonization and spatial-partitioning goals: positive weights on
/// communication bands, negative on interference bands.
class WeightedBandObjective : public Objective {
public:
    /// One term: mean SNR of link `link` over used subcarriers
    /// [`first_subcarrier`, `last_subcarrier`) scaled by `weight`.
    struct Term {
        std::size_t link = 0;
        std::size_t first_subcarrier = 0;
        std::size_t last_subcarrier = 0;
        double weight = 1.0;
    };

    explicit WeightedBandObjective(std::vector<Term> terms,
                                   std::string label = "weighted-bands");
    double score(const Observation& obs) const override;
    std::string name() const override { return label_; }

private:
    std::vector<Term> terms_;
    std::string label_;
};

/// The Figure-2/Figure-7 harmonization goal for two co-located networks:
/// link 0 should own the lower half of the band and link 1 the upper half.
/// When `interference_links` is true, observations carry four links
/// (comm A, comm B, interference A->B's client, interference B->A's
/// client) and the interference bands are penalized.
std::unique_ptr<Objective> make_harmonization_objective(
    std::size_t num_subcarriers, bool interference_links);

/// Composite objective over many links sharing one element field: the
/// combinator described by a MultiLinkSpec, usable both through the
/// general Observation path (score) and — via multilink_spec() — the
/// fused zero-alloc path of System::optimize_fast.
class MultiLinkObjective : public Objective {
public:
    explicit MultiLinkObjective(MultiLinkSpec spec,
                                std::string label = "multi-link");
    double score(const Observation& obs) const override;
    const MultiLinkSpec* multilink_spec() const override { return &spec_; }
    std::string name() const override { return label_; }

    const MultiLinkSpec& spec() const { return spec_; }

    /// One term's utility for an already-reduced SNR value (dB): the
    /// weighted value minus the QoS hinge penalty. Shared by the general
    /// path and the fused scorer so the two cannot drift.
    static double term_utility(const LinkTerm& term, double value_db);
    /// The combinator over per-term utilities, evaluated in term order
    /// (sum left-to-right / running min).
    static double combine(const MultiLinkSpec& spec,
                          const double* utilities);

private:
    MultiLinkSpec spec_;
    std::string label_;
};

/// Fluent builder for multi-link problems — the entry point for N-link
/// scenes (see docs/OBJECTIVES.md for the full semantics):
///
///     auto objective = MultiLinkProblem()
///         .serve(0).serve(1, /*weight=*/2.0)
///         .qos_floor(2, 10.0, /*qos_weight=*/4.0)
///         .null(3)
///         .max_min()
///         .build("my-scene");
class MultiLinkProblem {
public:
    /// Adds a fully-specified term.
    MultiLinkProblem& add(LinkTerm term);
    /// Serve `link`: weight * mean-SNR, no floor.
    MultiLinkProblem& serve(std::size_t link, double weight = 1.0);
    /// Serve `link` with a QoS floor: mean-SNR plus a hinge penalty of
    /// `qos_weight` per dB below `floor_db`.
    MultiLinkProblem& qos_floor(std::size_t link, double floor_db,
                                double qos_weight = 1.0);
    /// Null `link`: its mean SNR enters with weight -`weight`, so the
    /// score improves as the victim's received power drops.
    MultiLinkProblem& null(std::size_t link, double weight = 1.0);
    /// Combine terms as a weighted sum (the default).
    MultiLinkProblem& weighted_sum();
    /// Combine terms max-min: maximize the worst term utility.
    MultiLinkProblem& max_min();
    /// Per-term reduction for subsequently added serve/qos_floor/null
    /// terms (default kMeanSnr; kMinSnr optimizes worst subcarriers).
    MultiLinkProblem& reduce(FusedSpec::Kind kind);

    std::unique_ptr<Objective> build(std::string label = "multi-link") const;
    const MultiLinkSpec& spec() const { return spec_; }

private:
    MultiLinkSpec spec_;
    FusedSpec::Kind reduce_ = FusedSpec::Kind::kMeanSnr;
};

/// Max-min fairness over every link 0..num_links: maximize the worst
/// link's reduced SNR. The harmonization preset.
std::unique_ptr<Objective> make_max_min_objective(
    std::size_t num_links,
    FusedSpec::Kind reduce = FusedSpec::Kind::kMeanSnr);

/// Sum of per-link mean SNRs over every link (aggregate capacity proxy;
/// tolerates starving individual links).
std::unique_ptr<Objective> make_sum_mean_objective(std::size_t num_links);

/// Sum of per-link mean SNRs where every link also carries a QoS hinge:
/// `qos_weight` dB of penalty per dB any link falls below `floor_db`.
std::unique_ptr<Objective> make_qos_floor_objective(std::size_t num_links,
                                                    double floor_db,
                                                    double qos_weight);

/// Serve every link except `victim` (weight +1 mean SNR) while nulling
/// the victim (weight -victim_weight): the interference-nulling preset.
/// Requires num_links >= 2.
std::unique_ptr<Objective> make_nulling_objective(std::size_t num_links,
                                                  std::size_t victim,
                                                  double victim_weight = 1.0);

/// Minimizes the mean per-subcarrier MIMO condition number (score is its
/// negation so larger remains better).
class ConditionNumberObjective : public Objective {
public:
    double score(const Observation& obs) const override;
    std::string name() const override { return "min-condition-number"; }
};

}  // namespace press::control
