#include "obs/manifest.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "obs/build_info.hpp"

namespace press::obs {

std::size_t env_threads() {
    const char* env = std::getenv("PRESS_THREADS");
    if (env == nullptr) return 0;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed <= 0) return 0;
    return static_cast<std::size_t>(std::min(parsed, 64L));
}

RunManifest RunManifest::capture(std::string scenario, std::uint64_t seed) {
    RunManifest m;
    m.git_describe = kBuildGitDescribe;
    m.build_type = kBuildType;
    m.compiler = kBuildCompiler;
    m.cxx_flags = kBuildCxxFlags;
    m.sanitize = kBuildSanitize;
    const std::size_t env = env_threads();
    if (env != 0) {
        m.press_threads = env;
    } else {
        const unsigned hw = std::thread::hardware_concurrency();
        m.press_threads = hw == 0 ? 1 : static_cast<std::size_t>(hw);
    }
    m.seed = seed;
    m.scenario = std::move(scenario);
    return m;
}

}  // namespace press::obs
