// The one JSON string escaper. It lives in obs because obs depends on no
// other wasabi library, so every layer (obs exporters, core reports, repair
// and storm JSON) can share it.

#ifndef WASABI_SRC_OBS_JSON_H_
#define WASABI_SRC_OBS_JSON_H_

#include <string>
#include <string_view>

namespace wasabi {

// Escapes a string for inclusion inside a JSON string literal (quotes,
// backslashes, control characters).
std::string JsonEscape(std::string_view text);

}  // namespace wasabi

#endif  // WASABI_SRC_OBS_JSON_H_
