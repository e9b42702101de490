"""Extraction prompt templates shipped as data.

Both templates take ``question`` and ``context`` format fields and are what
the optional remote-extraction client sends.
"""

SUB_CONTEXT_EXTRACTION_PROMPT = """\
You are a top-tier algorithm designed for extracting sentences with time \
information in the text. Try to capture as much time information from the \
text as possible without sacrificing accuracy. Do not add any information \
that is not explicitly mentioned in the text. Your task is to identify the \
complete sentences with time information requested with the user prompt \
from a given text related to the given query. You must generate the output \
in a JSON format containing a list of complete sentences with time \
information from the given text.

IMPORTANT NOTES:
- Don't add any explanation and text. Don't change the original sentence.
- Identify all the events or actions that have time-related details.

Query: {question}
Context: {context}
assistant:"""

KG_EXTRACTION_PROMPT = """\
You are a top-tier algorithm designed for extracting information in \
structured formats to build a knowledge graph. Try to capture as much \
information from the text as possible without sacrificing accuracy. Do not \
add any information that is not explicitly mentioned in the text. Your task \
is to identify the entities and relations and timestamps requested with the \
user prompt from a given text. You must generate the output in a JSON \
format containing a list with JSON objects. Each object should have the \
keys: "head", "head_type", "relation", "tail", "tail_type" and "timestamp". \
The "head" key must contain the text of the extracted entity. The \
"head_type" key must contain the type of the extracted head entity, The \
"relation" key must contain the type of relation between the "head" and \
the "tail". The "tail" key must represent the text of an extracted entity \
which is the tail of the relation, and the "tail_type" key must contain the \
type of the tail entity. The "timestamp" key must contain the timestamp of \
the event if it is present in the text. If the timestamp is not present, \
the value of the "timestamp" key must be null. Your task is to extract \
relationships from text strictly adhering to the provided schema. The \
relationships can only appear between specific node types are presented in \
the schema format like: (Entity1Type, RELATIONSHIP_TYPE, Entity2Type, TIME) \
/n Attempt to extract as many entities and relations as you can. Maintain \
Entity Consistency: When extracting entities, it's vital to ensure \
consistency. If an entity, such as "John Doe", is mentioned multiple times \
in the text but is referred to by different names or pronouns (e.g., "Joe", \
"he"), always use the most complete identifier for that entity. The \
knowledge graph should be coherent and easily understandable, so \
maintaining consistency in entity references is crucial. Identify all the \
events or actions that have time-related details.

IMPORTANT NOTES:
- Don't add any explanation and text.

Query: {question}
Context: {context}
assistant:"""
