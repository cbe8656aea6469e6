#include "press/load.hpp"

#include <cmath>
#include <sstream>

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace press::surface {

std::string phase_label(double phase_rad) {
    const double multiple = phase_rad / util::kPi;
    std::ostringstream os;
    if (std::abs(multiple) < 1e-9) {
        os << "0";
    } else if (std::abs(multiple - 1.0) < 1e-9) {
        os << "pi";
    } else {
        // Trim trailing zeros from e.g. "0.50" -> "0.5".
        double r = std::round(multiple * 100.0) / 100.0;
        os << r << "pi";
    }
    return os.str();
}

Load Load::reflective(double phase_rad, double carrier_hz,
                      double efficiency) {
    PRESS_EXPECTS(carrier_hz > 0.0, "carrier frequency must be positive");
    PRESS_EXPECTS(phase_rad >= 0.0, "stub phase must be non-negative");
    PRESS_EXPECTS(efficiency > 0.0 && efficiency <= 1.0,
                  "passive efficiency must be in (0, 1]");
    Load l;
    l.reflection = {efficiency, 0.0};
    // A round-trip electrical length of phase/(2 pi) wavelengths.
    l.extra_delay_s = phase_rad / (util::kTwoPi * carrier_hz);
    l.label = phase_label(phase_rad);
    return l;
}

Load Load::absorptive(double leakage) {
    PRESS_EXPECTS(leakage >= 0.0 && leakage < 0.1,
                  "absorber leakage should be small");
    Load l;
    l.reflection = {leakage, 0.0};
    l.extra_delay_s = 0.0;
    // Built as a string first: GCC 12 flags the inlined char-array
    // assignment with a false -Wrestrict.
    l.label = std::string("T");
    return l;
}

Load Load::active(double gain_db, double phase_rad, double carrier_hz) {
    PRESS_EXPECTS(carrier_hz > 0.0, "carrier frequency must be positive");
    PRESS_EXPECTS(phase_rad >= 0.0, "phase must be non-negative");
    Load l;
    l.reflection = {util::db_to_amplitude(gain_db), 0.0};
    l.extra_delay_s = phase_rad / (util::kTwoPi * carrier_hz);
    l.label = "A(" + phase_label(phase_rad) + ")";
    return l;
}

bool Load::is_active() const { return std::abs(reflection) > 1.0; }

bool Load::is_off() const { return label == "T"; }

}  // namespace press::surface
