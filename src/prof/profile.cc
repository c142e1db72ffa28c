#include "prof/profile.hh"

namespace persim::prof
{

double
SweepProfile::attributionRatio() const
{
    const std::uint64_t total = phases.total();
    return total > 0 ? static_cast<double>(phases.attributed()) /
                           static_cast<double>(total)
                     : 0.0;
}

exp::JsonValue
SweepProfile::toJson() const
{
    exp::JsonValue out = exp::JsonValue::object();
    out["persimProf"] = exp::JsonValue(1);
    out["sweep"] = exp::JsonValue(sweep);
    out["periodUsec"] = exp::JsonValue(periodUsec);
    out["samples"] = exp::JsonValue(phases.total());
    out["attributionRatio"] = exp::JsonValue(attributionRatio());
    out["unattributed"] = exp::JsonValue(unattributed);
    exp::JsonValue byPhase = exp::JsonValue::object();
    for (std::size_t i = 0; i < kPhaseCount; ++i)
        byPhase[phaseName(static_cast<Phase>(i))] =
            exp::JsonValue(phases.samples[i]);
    out["phases"] = std::move(byPhase);
    return out;
}

} // namespace persim::prof
