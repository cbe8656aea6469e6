// Scenario builders: seeded, self-contained reconstructions of the paper's
// experimental setups (Section 3). All geometry and link-budget constants
// live here so every bench, test and example measures the same world.
#pragma once

#include <cstdint>

#include "core/system.hpp"

namespace press::core {

/// Geometry and hardware constants of the exploratory-study room. Exposed
/// so ablation benches can vary one knob at a time.
struct StudyParams {
    double carrier_hz = 2.462e9;     ///< Wi-Fi channel 11
    /// The lab floor: an open-plan space (reflections propagate well
    /// beyond the immediate benches, giving the ~100 ns delay spreads that
    /// make 20 MHz channels frequency-selective indoors).
    double room_x = 16.0, room_y = 12.0, room_z = 3.0;
    double endpoint_gain_dbi = 2.0;  ///< PulseLarsen W1030-like omnis
    double element_gain_dbi = 12.0;  ///< element antenna gain (the prototype's
                                     ///  Laird GD24BP-class directional element,
                                     ///  modeled as its well-aimed boresight gain)
    double blocker_attenuation_db = 35.0;
    double link_distance_m = 3.0;    ///< TX-RX separation
    int num_scatterers = 10;
    int num_metal_scatterers = 3;    ///< cabinets/racks: strong reflectors
    int num_elements = 3;            ///< the prototype's three elements
    int wall_reflection_order = 3;

    static StudyParams defaults() { return {}; }
};

/// A single-link scenario: link 0 is TX -> RX across the room, array 0 is
/// the PRESS array between them. `line_of_sight == false` installs the
/// metal blocker the paper uses to create frequency-selective channels.
struct LinkScenario {
    System system;
    std::size_t array_id = 0;
    std::size_t link_id = 0;
};

/// Builds the Section 3.2.1 setup: WARP-like endpoints, Wi-Fi numerology,
/// `params.num_elements` SP4T prototype elements placed uniformly at random
/// in a region 1-2 m from both antennas (a new placement per seed, like the
/// paper's eight random placements).
LinkScenario make_link_scenario(std::uint64_t seed, bool line_of_sight,
                                const StudyParams& params =
                                    StudyParams::defaults());

/// Same geometry but the array is made of active (amplify-and-forward)
/// elements with `gain_db` of forward gain — the paper's proposed fix for
/// line-of-sight links.
LinkScenario make_active_link_scenario(std::uint64_t seed,
                                       bool line_of_sight, double gain_db,
                                       const StudyParams& params =
                                           StudyParams::defaults());

/// The same single-link experiment on the Saleh-Valenzuela statistical
/// substrate instead of the ray-traced room: the direct path is blocked
/// (as in the NLoS study) and the multipath is a seeded SV realization.
/// Used by bench/ablation_substrate to check that the paper's conclusions
/// survive a change of channel model.
LinkScenario make_sv_link_scenario(std::uint64_t seed,
                                   const StudyParams& params =
                                       StudyParams::defaults());

/// The Figure-7 measurement setup as the paper actually ran it: a single
/// N210 link with the 102-subcarrier numerology and two 4-phase elements
/// (no absorptive load), in non-line-of-sight. The paper manipulated the
/// environment "until a frequency-selective channel was found"; callers
/// emulate that curation by advancing the seed (see
/// experiments::find_harmonization_pair).
LinkScenario make_fig7_link_scenario(std::uint64_t seed,
                                     const StudyParams& params =
                                         StudyParams::defaults());

/// Knobs of the massive-element (RFocus-regime) scene. The defaults model
/// a wall-mounted panel of cheap two-state backscatter elements at
/// half-wavelength pitch — the arXiv:1905.05130 deployment scaled into
/// the study room — rather than the paper's three directional elements.
struct MassiveParams {
    double carrier_hz = 2.462e9;     ///< Wi-Fi channel 11
    double room_x = 16.0, room_y = 12.0, room_z = 3.0;
    double endpoint_gain_dbi = 2.0;
    /// Per-element gain: a dense panel of patch-like radiators, far
    /// flatter than the study's well-aimed directional elements.
    double element_gain_dbi = 6.0;
    double blocker_attenuation_db = 35.0;
    double link_distance_m = 6.0;    ///< TX-RX separation
    int num_scatterers = 10;
    int num_metal_scatterers = 3;
    int wall_reflection_order = 2;
    /// States per element; 2 = binary phase (0, pi), the RFocus regime.
    int num_states = 2;
    /// Element pitch on the panel; <= 0 resolves to half a wavelength.
    double panel_spacing_m = 0.0;

    static MassiveParams defaults() { return {}; }
};

/// Builds a 1,000-4,000 element scene: a planar grid of `n_elements`
/// two-state elements on a wall panel offset ~2 m from the (blocked)
/// TX-RX axis, with seeded sub-pitch placement jitter. The returned
/// scenario has ConfigSpace cardinality 2^n — callers must use searchers
/// that never enumerate or count the space (majority-vote, random
/// partition, greedy coordinate descent).
LinkScenario make_massive_scenario(std::size_t n_elements,
                                   std::uint64_t seed,
                                   const MassiveParams& params =
                                       MassiveParams::defaults());

/// Knobs of the wideband Wi-Fi 6E/7 scene (DESIGN.md §15): a 996-tone
/// (160 MHz) or 1960-tone (320 MHz) numerology in the 6 GHz band over a
/// small multi-phase panel, scored per-RU under a preamble-puncturing
/// mask.
struct WidebandParams {
    /// Numerology: wifi6e_160() (996 used tones) or wifi7_320() (1960).
    phy::OfdmParams ofdm = phy::OfdmParams::wifi6e_160();
    int num_elements = 16;  ///< panel elements
    int num_states = 4;     ///< phases per element
    /// RU partition arity of the scenario's mask (uniform split of the
    /// used tones, the modeled regularization of the 802.11ax RU ladder).
    std::size_t num_ru = 8;
    /// RUs punctured out of the mask (incumbent avoidance). Empty keeps
    /// the full mask.
    std::vector<std::size_t> punctured_rus = {5};

    static WidebandParams defaults() { return {}; }
};

/// The wideband scene: link 0 across the study room, array 0 the panel,
/// plus the scenario's RU mask (uniform partition with the configured
/// RUs punctured). Pair with control::MaskedSnrObjective(mask, ...) and
/// System::optimize_fast for the tile-bounded masked evaluation path.
struct WidebandScenario {
    System system;
    std::size_t array_id = 0;
    std::size_t link_id = 0;
    phy::RuMask mask;
};

/// Builds the wideband scene: the study room and clutter at the
/// numerology's 6 GHz carrier, the standard metal blocker for NLoS
/// frequency selectivity, `num_elements` seeded-placement multi-phase
/// elements in the study's element band, and a punctured uniform RU
/// mask over the used tones.
WidebandScenario make_wideband_scenario(std::uint64_t seed,
                                        const WidebandParams& params =
                                            WidebandParams::defaults());

/// Knobs of the multi-user (N-link) scene: several APs, each serving a
/// population of clients, all sharing one element field. The defaults
/// give 4 x 8 = 32 links over a 16-element 4-phase panel — the
/// fig-harmonization bench shape.
struct MultiLinkParams {
    std::size_t num_aps = 4;         ///< distinct transmitters (groups)
    std::size_t clients_per_ap = 8;  ///< links per transmitter
    int num_elements = 16;           ///< panel elements
    int num_states = 4;              ///< phases per element
    /// Room, clutter and link-budget constants (the study room).
    StudyParams study = StudyParams::defaults();

    static MultiLinkParams defaults() { return {}; }
};

/// An N-link scene over one shared element field. Links are ordered AP
/// major: link a * clients_per_ap + c is AP `a` serving client `c`, so
/// the shared basis groups them into `num_aps` transmitter groups.
struct MultiLinkScenario {
    System system;
    std::size_t array_id = 0;
    std::size_t num_aps = 0;
    std::size_t clients_per_ap = 0;
    std::size_t num_links = 0;  ///< num_aps * clients_per_ap
};

/// Builds the multi-user scene: APs wall-mounted along one side of the
/// study room, clients seeded uniformly over the opposite half, a
/// half-wavelength-pitch panel of `num_elements` `num_states`-phase
/// elements between them, and the standard metal blocker for NLoS
/// richness. Wi-Fi 20 MHz numerology. Pair with
/// System::optimize_fast and a control::MultiLinkProblem objective.
MultiLinkScenario make_multi_link_scenario(
    std::uint64_t seed,
    const MultiLinkParams& params = MultiLinkParams::defaults());

/// The full two-network harmonization setup of the paper's Figure 2
/// vision: two co-located networks (links 0 and
/// 1: AP1 -> client1, AP2 -> client2; links 2 and 3 the cross-network
/// interference channels), N210-like endpoints with the 102-subcarrier
/// numerology, and two 4-phase elements without absorptive loads.
struct HarmonizationScenario {
    System system;
    std::size_t array_id = 0;
};

HarmonizationScenario make_harmonization_scenario(
    std::uint64_t seed,
    const StudyParams& params = StudyParams::defaults());

/// The Figure-8 MIMO setup: X310-like 2x2 endpoints in non-line-of-sight,
/// PRESS elements co-linear with the TX antenna pair at one-wavelength
/// spacing.
struct MimoScenario {
    sdr::Medium medium;
    std::vector<em::RadiatingEndpoint> tx_antennas;
    std::vector<em::RadiatingEndpoint> rx_antennas;
    sdr::RadioProfile profile;
    std::size_t array_id = 0;
};

MimoScenario make_mimo_scenario(std::uint64_t seed,
                                const StudyParams& params =
                                    StudyParams::defaults());

}  // namespace press::core
